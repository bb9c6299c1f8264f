(* One simulated deployment of a workload: build, arm the probes and the
   fault script, run, gate. *)

module Engine = Rcc_sim.Engine
module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Metrics = Rcc_replica.Metrics
module Script = Rcc_chaos.Script
module Nemesis = Rcc_chaos.Nemesis

type t = {
  cluster : Cluster.t;
  report : Report.t;
  minor_words : float;  (** allocated inside Cluster.run *)
  outage : Probes.outage;
  recovery : Probes.recovery option;
  replay_wall_s : float;  (** CPU seconds of the restart-from-disk action *)
  errors : string list;
}

let slo = Engine.ms 50

let offered t =
  match t.report.Report.open_loop with
  | Some ol -> ol.Report.offered_txns
  | None -> 0

let completed t =
  Rcc_replica.Client_pool.completed_batches (Cluster.client_pool t.cluster)
  * (Cluster.config t.cluster).Config.batch_size

(* Post-warmup completions slower than [slo]: the latency histogram
   only answers percentile queries, so bisect for its CDF at [slo]. *)
let late t =
  let metrics = Cluster.metrics t.cluster in
  let bound = Engine.to_seconds slo in
  if Metrics.latency_percentile metrics 1.0 <= bound then 0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2.0 in
      if Metrics.latency_percentile metrics mid > bound then hi := mid
      else lo := mid
    done;
    int_of_float
      (Float.round ((1.0 -. !hi) *. float_of_int (Metrics.committed_txns metrics)))
  end

let failed t = offered t - completed t

(* [on_build] sees the cluster before anything is armed on its engine. *)
let run ?(on_build = ignore) (w : Workload.t) ~seed =
  let cfg = w.Workload.config ~seed in
  let cluster = Cluster.build cfg in
  on_build cluster;
  let engine = Cluster.engine cluster in
  let outage = Probes.arm_outage cluster in
  let replay_t0 = ref 0.0 and replay_wall_s = ref 0.0 in
  let nemesis, recovery =
    match w.Workload.faults with
    | None -> (None, None)
    | Some f ->
        let victim = Cluster.primary_of_instance cluster 1 in
        let witness = if victim = 0 then 1 else 0 in
        let script =
          [
            { Script.at = f.Workload.crash_at; action = Script.Crash victim };
            {
              Script.at = f.Workload.restart_at;
              action = Script.Restart_from_disk victim;
            };
          ]
        in
        (* Bracket the nemesis' restart action with two events at the
           same instant: equal-time events fire in insertion order. *)
        Engine.schedule_at engine f.Workload.restart_at (fun () ->
            replay_t0 := Sys.time ());
        let nemesis = Nemesis.install cluster script in
        Engine.schedule_at engine f.Workload.restart_at (fun () ->
            replay_wall_s := Sys.time () -. !replay_t0);
        let recovery =
          Probes.arm_recovery cluster ~replica:victim ~witness
            ~restart_at:f.Workload.restart_at
        in
        (Some nemesis, Some recovery)
  in
  let words0 = Gc.minor_words () in
  let report = Cluster.run cluster in
  let minor_words = Gc.minor_words () -. words0 in
  let dead = match nemesis with Some n -> Nemesis.dead_now n | None -> [] in
  let errors = Gate.check cluster report ~dead in
  {
    cluster;
    report;
    minor_words;
    outage;
    recovery;
    replay_wall_s = !replay_wall_s;
    errors;
  }
