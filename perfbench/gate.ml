(* Correctness gate run after every simulated deployment. A run that
   fails any check reports as failed, never as a number. *)

module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Ledger = Rcc_storage.Ledger
module Invariant = Rcc_chaos.Invariant

let check cluster (report : Report.t) ~dead =
  let cfg = Cluster.config cluster in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  for r = 0 to cfg.Config.n - 1 do
    match Ledger.validate (Cluster.ledger cluster r) with
    | Ok () -> ()
    | Error e -> fail "replica %d ledger invalid: %s" r e
  done;
  (* Chain validity, common-prefix agreement of every live pair, slot
     agreement, no duplicate execution, coordinator structure and the
     durable-frontier floor of restarted replicas. *)
  List.iter
    (fun v -> fail "invariant %s" (Invariant.to_string v))
    (Invariant.safety cluster ~exclude:dead);
  (match report.Report.open_loop with
  | None -> fail "not an open-loop run"
  | Some ol ->
      let offered = ol.Report.offered_txns in
      if offered <> ol.Report.injected_txns + ol.Report.dropped_txns then
        fail "offered %d <> injected %d + dropped %d" offered
          ol.Report.injected_txns ol.Report.dropped_txns;
      let completed =
        Rcc_replica.Client_pool.completed_batches (Cluster.client_pool cluster)
        * cfg.Config.batch_size
      in
      if completed > ol.Report.injected_txns then
        fail "completed %d > injected %d" completed ol.Report.injected_txns;
      if report.Report.committed_txns > completed then
        fail "post-warmup committed %d > completed %d"
          report.Report.committed_txns completed);
  if report.Report.committed_txns = 0 then fail "no transaction committed";
  List.rev !errors
