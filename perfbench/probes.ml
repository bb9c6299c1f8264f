(* Outside-in virtual-time probes, armed on the engine before the run:

   - the outage probe samples Metrics.committed_txns every [period]
     after warmup and keeps the longest stretch with no client
     completion;
   - the recovery probe follows a restarted replica's ledger against a
     live replica's, every [period] from the restart on.

   [period] is 0.1 ms rather than 1 ms: fault-free stalls last 3-5 ms,
   which a 1 ms probe would round to whole milliseconds. *)

module Engine = Rcc_sim.Engine
module Cluster = Rcc_runtime.Cluster
module Metrics = Rcc_replica.Metrics
module Ledger = Rcc_storage.Ledger

let period = Engine.us 100

type outage = {
  mutable last_count : int;
  mutable last_change : Engine.time;
  mutable longest : Engine.time;
  mutable censored : bool;  (** the longest stall was still open at the end *)
}

(* Re-arms itself every [period] until the end of the run. *)
let rec every engine ~from ~until f =
  if from <= until then
    Engine.schedule_at engine from (fun () ->
        f from;
        every engine ~from:(from + period) ~until f)

let arm_outage cluster =
  let cfg = Cluster.config cluster in
  let metrics = Cluster.metrics cluster in
  let start = cfg.Rcc_runtime.Config.warmup in
  let until = cfg.Rcc_runtime.Config.duration in
  let o = { last_count = 0; last_change = start; longest = 0; censored = false } in
  every (Cluster.engine cluster) ~from:start ~until (fun now ->
      let c = Metrics.committed_txns metrics in
      if c <> o.last_count then begin
        o.last_count <- c;
        o.last_change <- now
      end
      else if now - o.last_change > o.longest then begin
        o.longest <- now - o.last_change;
        o.censored <- now + period > until
      end);
  o

let outage_ms o = Engine.to_seconds o.longest *. 1e3

type recovery = {
  replica : int;
  witness : int;  (** a replica the script never touches *)
  restart_at : Engine.time;
  mutable frontier_at_restart : int;  (** ledger length right after replay *)
  mutable resumed_at : Engine.time option;  (** first round past it *)
  mutable stuck_from : Engine.time;  (** start of the current flat stretch *)
  mutable longest_stuck : Engine.time;
  mutable last_len : int;
}

(* Call after Nemesis.install: events at equal times fire in insertion
   order, so the frontier snapshot at [restart_at] lands just after the
   nemesis has replayed the journal. *)
let arm_recovery cluster ~replica ~witness ~restart_at =
  let engine = Cluster.engine cluster in
  let until = (Cluster.config cluster).Rcc_runtime.Config.duration in
  let ledger () = Ledger.length (Cluster.ledger cluster replica) in
  let r =
    {
      replica;
      witness;
      restart_at;
      frontier_at_restart = 0;
      resumed_at = None;
      stuck_from = restart_at;
      longest_stuck = 0;
      last_len = 0;
    }
  in
  Engine.schedule_at engine restart_at (fun () ->
      r.frontier_at_restart <- ledger ();
      r.last_len <- r.frontier_at_restart);
  every engine ~from:(restart_at + period) ~until (fun now ->
      let len = ledger () in
      if len > r.frontier_at_restart && r.resumed_at = None then
        r.resumed_at <- Some now;
      if len <> r.last_len then begin
        r.last_len <- len;
        r.stuck_from <- now
      end
      else r.longest_stuck <- max r.longest_stuck (now - r.stuck_from));
  r

let lag_rounds cluster r =
  Ledger.length (Cluster.ledger cluster r.witness)
  - Ledger.length (Cluster.ledger cluster r.replica)
