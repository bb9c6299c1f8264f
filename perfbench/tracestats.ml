(* Per-layer breakdown of a traced run, derived from the existing
   Slot_* / Span / Exec_* / Journal_snapshot / Primary_change events;
   counts the Report already carries (messages, flushes, contract bytes)
   are taken from it instead.

   The ring buffer keeps only a trailing window, so rather than sizing it
   for a whole run the benchmark drains it while the run goes: a probe on
   the engine swaps in a fresh recorder (Engine.set_tracer) and folds
   the full one into the aggregates below. The probe period adapts to
   the observed event rate so a period never fills the ring; events the
   ring did drop anyway are counted in [lost]. Only events at or after
   warmup enter the stage and busy-share figures. *)

module Engine = Rcc_sim.Engine
module Event = Rcc_trace.Event
module Recorder = Rcc_trace.Recorder
module Histogram = Rcc_common.Stats.Histogram

let capacity = 1 lsl 20

type cls = Input | Batch | Worker | Exec | Exec_pool | Nic | Disk | Other

let classes =
  [ ("input", Input); ("batch", Batch); ("worker", Worker); ("exec", Exec);
    ("exec_pool", Exec_pool); ("nic", Nic); ("disk", Disk) ]

let cls_index = function
  | Input -> 0 | Batch -> 1 | Worker -> 2 | Exec -> 3 | Exec_pool -> 4
  | Nic -> 5 | Disk -> 6 | Other -> 7

(* Track names are "r<id>-input-<k>", "r<id>-batch-<k>", "r<id>-worker<x>",
   "r<id>-exec", "r<id>-exec-pool-<k>", "r<id>-disk" (Node, Journal; pool
   servers get a "-<k>" suffix from Cpu.pool) and
   "nic-<node>[.<incarnation>]" (Net). *)
let classify track =
  let starts p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  if starts "nic-" track then Nic
  else
    match String.index_opt track '-' with
    | None -> Other
    | Some i ->
        let rest = String.sub track (i + 1) (String.length track - i - 1) in
        if starts "exec-pool" rest then Exec_pool
        else if rest = "exec" then Exec
        else if starts "input" rest then Input
        else if starts "batch" rest then Batch
        else if starts "worker" rest then Worker
        else if rest = "disk" then Disk
        else Other

type t = {
  n : int;
  z : int;
  from : Engine.time;
  until : Engine.time;
  mutable lost : int;
  mutable probes : int;  (** engine events the drain probe itself added *)
  mutable events : int;
  (* stage decomposition, keyed by (replica, instance, round) /
     (replica, round) *)
  proposed : (int, Engine.time) Hashtbl.t;
  rounds : (int, round_acc) Hashtbl.t;
  completed : (int, Engine.time) Hashtbl.t;
  order : Histogram.t;
  barrier : Histogram.t;
  exec : Histogram.t;
  (* busy nanoseconds per (replica, class) *)
  busy : int array array;
  track_cls : (string, cls) Hashtbl.t;
  (* parallel exec *)
  windows : (int * Engine.time, unit) Hashtbl.t;
  mutable groups : int;
  mutable group_txns : int;
  mutable conflict_keys : int;
  (* storage: Journal_flush counts come from Report instead *)
  mutable snapshots : int;
  mutable snapshot_bytes : int;
  mutable kv_txns : int;
      (** Slot_exec txns at replica 0, the one replica that materializes
          KV state at n > 8; counted over the whole run *)
  mutable checkpoints : int;
      (** Checkpoint_stable at replica 0, all instances, whole run *)
  (* coordinator *)
  mutable primary_changes : Engine.time list;
}

and round_acc = {
  mutable seen : int;  (** bitmask of the instances accepted so far *)
  mutable times : Engine.time list;  (** their accept times *)
}

let create ~n ~z ~from ~until =
  {
    n;
    z;
    from;
    until;
    lost = 0;
    probes = 0;
    events = 0;
    proposed = Hashtbl.create 4096;
    rounds = Hashtbl.create 4096;
    completed = Hashtbl.create 4096;
    order = Histogram.create ();
    barrier = Histogram.create ();
    exec = Histogram.create ();
    busy = Array.init n (fun _ -> Array.make 8 0);
    track_cls = Hashtbl.create 64;
    windows = Hashtbl.create 1024;
    groups = 0;
    group_txns = 0;
    conflict_keys = 0;
    snapshots = 0;
    snapshot_bytes = 0;
    kv_txns = 0;
    checkpoints = 0;
    primary_changes = [];
  }

let slot_key ~replica ~instance ~round = (((round * 64) + instance) * 64) + replica
let round_key ~replica ~round = (round * 64) + replica
let ms d = Engine.to_seconds d *. 1e3

let on_accept t ~at ~replica ~instance ~round =
  (match Hashtbl.find_opt t.proposed (slot_key ~replica ~instance ~round) with
  | Some p ->
      Hashtbl.remove t.proposed (slot_key ~replica ~instance ~round);
      if p >= t.from then Histogram.add t.order (ms (at - p))
  | None -> ());
  let rk = round_key ~replica ~round in
  let acc =
    match Hashtbl.find_opt t.rounds rk with
    | Some a -> a
    | None ->
        let a = { seen = 0; times = [] } in
        Hashtbl.replace t.rounds rk a;
        a
  in
  let bit = 1 lsl instance in
  if acc.seen land bit = 0 then begin
    acc.seen <- acc.seen lor bit;
    acc.times <- at :: acc.times;
    if acc.seen = (1 lsl t.z) - 1 then begin
      Hashtbl.remove t.rounds rk;
      let last = List.fold_left max 0 acc.times in
      if last >= t.from then
        List.iter (fun a -> Histogram.add t.barrier (ms (last - a))) acc.times;
      Hashtbl.replace t.completed rk last
    end
  end

let fold t (ev : Event.t) =
  t.events <- t.events + 1;
  let at = ev.Event.at and replica = ev.Event.replica in
  match ev.Event.payload with
  | Event.Span { track; dur } ->
      if replica >= 0 && replica < t.n && at >= t.from && at < t.until then begin
        let c =
          match Hashtbl.find_opt t.track_cls track with
          | Some c -> c
          | None ->
              let c = classify track in
              Hashtbl.replace t.track_cls track c;
              c
        in
        let row = t.busy.(replica) in
        let i = cls_index c in
        row.(i) <- row.(i) + min dur (t.until - at)
      end
  | Event.Slot_propose { round } ->
      let k = slot_key ~replica ~instance:ev.Event.instance ~round in
      if not (Hashtbl.mem t.proposed k) then Hashtbl.replace t.proposed k at
  | Event.Slot_accept { round; _ } ->
      on_accept t ~at ~replica ~instance:ev.Event.instance ~round
  | Event.Slot_exec { round; txns; _ } ->
      if replica = 0 then t.kv_txns <- t.kv_txns + txns;
      let rk = round_key ~replica ~round in
      (match Hashtbl.find_opt t.completed rk with
      | Some c ->
          Hashtbl.remove t.completed rk;
          if c >= t.from then Histogram.add t.exec (ms (at - c))
      | None -> ())
  | Event.Exec_group { txns; _ } ->
      if at >= t.from then begin
        Hashtbl.replace t.windows (replica, at) ();
        t.groups <- t.groups + 1;
        t.group_txns <- t.group_txns + txns
      end
  | Event.Exec_conflict { keys; _ } ->
      if at >= t.from then t.conflict_keys <- t.conflict_keys + keys
  | Event.Journal_snapshot { bytes; _ } ->
      t.snapshots <- t.snapshots + 1;
      t.snapshot_bytes <- t.snapshot_bytes + bytes
  | Event.Checkpoint_stable _ ->
      if replica = 0 then t.checkpoints <- t.checkpoints + 1
  | Event.Primary_change _ -> t.primary_changes <- at :: t.primary_changes
  | Event.Net_send _ | Event.Net_deliver _ | Event.Contract_sent _
  | Event.Journal_flush _ | Event.Journal_replay_begin _
  | Event.Journal_replay_complete _ | Event.Kmal _ | Event.Blame _
  | Event.Contract_adopted _ | Event.Collusion | Event.Violation _
  | Event.St_gap _ | Event.St_request _ | Event.St_served _ | Event.St_verified _
  | Event.St_installed _ | Event.St_rejected _ | Event.Rollback_begin _
  | Event.Rollback_round _ | Event.Rollback_complete _ | Event.Journal_fault _
  | Event.Journal_truncated _ | Event.Journal_replay_round _ ->
      ()

let drain t recorder =
  t.lost <- t.lost + Recorder.dropped recorder;
  Recorder.iter recorder (fold t)

(* Attach a fresh recorder to [engine] and keep swapping it out on a
   period sized so the last period's event rate would fill a quarter of
   the ring, leaving room for bursts (a view change floods the network).
   Call the returned function after the run to fold the last one. *)
let attach t engine =
  let current = ref (Recorder.create ~capacity ()) in
  Engine.set_tracer engine !current;
  let min_period = Engine.us 100 and max_period = Engine.ms 20 in
  let rec probe period at =
    Engine.schedule_at engine at (fun () ->
        t.probes <- t.probes + 1;
        let r = !current in
        current := Recorder.create ~capacity ();
        Engine.set_tracer engine !current;
        let recorded = Recorder.recorded r in
        drain t r;
        let next =
          if recorded = 0 then max_period
          else
            max min_period
              (min max_period (period * (capacity / 4) / max 1 recorded))
        in
        if at + next <= t.until then probe next (at + next))
  in
  probe min_period min_period;
  fun () -> drain t !current

let busy_share t c ~servers =
  let window = float_of_int (t.until - t.from) in
  let i = cls_index c in
  let shares =
    Array.map
      (fun row -> float_of_int row.(i) /. (window *. float_of_int (max 1 servers)))
      t.busy
  in
  let mx = Array.fold_left max 0.0 shares in
  let mean = Array.fold_left ( +. ) 0.0 shares /. float_of_int t.n in
  (mx, mean)
