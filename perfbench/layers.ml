(* --trace 1: the per-layer metrics of one workload at one seed.

   One untraced deployment gives the deterministic counters and the
   reference wall time; one traced deployment at the same seed (the same
   virtual run, event for event) gives the stage decomposition, the
   all-replica busy shares and the rare-event timings; then each layer's
   public functions are timed on the workload's own inputs. Metrics a
   workload does not exercise (parallel exec under serial exec, journal
   and recovery without faults) print as 0. *)

module Engine = Rcc_sim.Engine
module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report
module Histogram = Rcc_common.Stats.Histogram
open Util

(* The untraced deployment's numbers, extracted so its cluster can be
   collected before the traced one is built. *)
type plain = {
  report : Report.t;
  wall_s : float;
  words : float;
  completed : int;
  requests_sent : int;
  outage_censored : bool;
  replay_ms : float;
  resume_ms : float;
  resume_censored : bool;
  stuck_ms : float;
  lag_rounds : int;
  errors : string list;
}

let plain (r : Rep.t) =
  let cfg = Cluster.config r.Rep.cluster in
  let to_ms d = Engine.to_seconds d *. 1e3 in
  let resume_ms, resume_censored, stuck_ms, lag_rounds =
    match r.Rep.recovery with
    | None -> (0.0, false, 0.0, 0)
    | Some rc -> (
        let lag = Probes.lag_rounds r.Rep.cluster rc in
        let stuck = to_ms rc.Probes.longest_stuck in
        match rc.Probes.resumed_at with
        | Some at -> (to_ms (at - rc.Probes.restart_at), false, stuck, lag)
        | None ->
            (to_ms (cfg.Config.duration - rc.Probes.restart_at), true, stuck, lag))
  in
  {
    report = r.Rep.report;
    wall_s = r.Rep.report.Report.wall_seconds;
    words = r.Rep.minor_words;
    completed = Rep.completed r;
    requests_sent = Cluster.client_requests_sent r.Rep.cluster;
    outage_censored = r.Rep.outage.Probes.censored;
    replay_ms = r.Rep.replay_wall_s *. 1e3;
    resume_ms;
    resume_censored;
    stuck_ms;
    lag_rounds;
    errors = r.Rep.errors;
  }

let run (w : Workload.t) ~seed =
  let cfg = w.Workload.config ~seed in
  settle ();
  let p = plain (Rep.run w ~seed) in
  log "[%s] untraced: wall %.3fs, %d events" w.Workload.name p.wall_s
    p.report.Report.sim_events;
  settle ();
  let stats =
    Tracestats.create ~n:cfg.Config.n ~z:cfg.Config.z ~from:cfg.Config.warmup
      ~until:cfg.Config.duration
  in
  let finish = ref ignore in
  let traced =
    Rep.run w ~seed ~on_build:(fun c ->
        finish := Tracestats.attach stats (Cluster.engine c))
  in
  !finish ();
  let traced_wall = traced.Rep.report.Report.wall_seconds in
  let traced_errors = traced.Rep.errors in
  let traced_events =
    traced.Rep.report.Report.sim_events - stats.Tracestats.probes
  in
  log "[%s] traced: wall %.3fs, %d trace events, %d lost" w.Workload.name
    traced_wall stats.Tracestats.events stats.Tracestats.lost;
  List.iter (fun e -> log "  gate FAILED (untraced): %s" e) p.errors;
  List.iter (fun e -> log "  gate FAILED (traced): %s" e) traced_errors;
  let mismatch = traced_events <> p.report.Report.sim_events in
  if mismatch then
    log "  traced run diverged: %d vs %d events" traced_events
      p.report.Report.sim_events;
  settle ();
  let u = Units.run cfg in
  let client_build_s, client_words = Units.client_pool cfg in
  let r = p.report in
  let fi = float_of_int in
  let per_txn x = fi x /. fi (max 1 p.completed) in
  let ratio a b = if b = 0 then 0.0 else fi a /. fi b in
  (* The latency histogram files an exact 0 (MultiZ accepts a slot the
     instant it opens) under its lowest bucket, ~1e-12 s: print 0. *)
  let pct h q =
    let v = Histogram.percentile h q in
    if v < 1e-6 then 0.0 else v
  in
  let events = r.Report.sim_events and msgs = r.Report.messages in
  let ol = Option.get r.Report.open_loop in
  let injected_batches = ol.Report.injected_txns / cfg.Config.batch_size in
  let detect_ms =
    match w.Workload.faults with
    | None -> 0.0
    | Some { Workload.crash_at = c; _ } -> (
        match List.filter (fun at -> at >= c) stats.Tracestats.primary_changes with
        | [] -> Engine.to_seconds (cfg.Config.duration - c) *. 1e3
        | l -> Engine.to_seconds (List.fold_left min max_int l - c) *. 1e3)
  in
  let share ns count = ns *. fi count /. 1e9 /. p.wall_s in
  let shares =
    [
      ("heap", share u.Units.heap_ns (events - msgs));
      ("net", share u.Units.net_send_ns msgs);
      ( "crypto",
        share u.Units.batch_create_ns injected_batches
        +. share u.Units.batch_verify_ns p.requests_sent );
      ("kv", share u.Units.kv_apply_ns stats.Tracestats.kv_txns);
      ("journal", share u.Units.journal_round_ns r.Report.jrn_appends);
    ]
  in
  let servers = function
    | Tracestats.Input -> 3
    | Tracestats.Batch -> 2
    | Tracestats.Worker -> cfg.Config.z
    | Tracestats.Exec_pool -> cfg.Config.exec_threads
    | Tracestats.Exec | Tracestats.Nic | Tracestats.Disk | Tracestats.Other -> 1
  in
  let m name unit_ value = { name; unit_; value; samples = 1 } in
  let metrics =
    [
      m "sim.events_per_txn" "events/txn" (per_txn events);
      m "sim.words_per_event" "words/event" (p.words /. fi (max 1 events));
      m "sim.heap_ns_per_op" "ns" u.Units.heap_ns;
      m "net.send_ns" "ns" u.Units.net_send_ns;
      m "net.msgs_per_txn" "msgs/txn" (per_txn msgs);
      m "net.bytes_per_txn" "bytes/txn" (per_txn r.Report.bytes_sent);
    ]
    @ List.concat_map
        (fun (name, c) ->
          let mx, mean = Tracestats.busy_share stats c ~servers:(servers c) in
          [
            m (Printf.sprintf "cpu.%s.busy_max" name) "share" mx;
            m (Printf.sprintf "cpu.%s.busy_mean" name) "share" mean;
          ])
        Tracestats.classes
    @ [
        m "crypto.sha256_ns_per_kb" "ns/KiB" u.Units.sha256_ns_per_kb;
        m "crypto.hmac_ns" "ns" u.Units.hmac_ns;
        m "crypto.cmac_ns" "ns" u.Units.cmac_ns;
        m "crypto.batch_create_ns" "ns" u.Units.batch_create_ns;
        m "crypto.batch_verify_ns" "ns" u.Units.batch_verify_ns;
        m "codec.roundtrip_ns" "ns" u.Units.codec_ns;
        m "codec.words_per_roundtrip" "words" u.Units.codec_words;
        m "stage.order_p50_ms" "ms" (pct stats.Tracestats.order 0.5);
        m "stage.order_p99_ms" "ms" (pct stats.Tracestats.order 0.99);
        m "stage.barrier_p50_ms" "ms" (pct stats.Tracestats.barrier 0.5);
        m "stage.barrier_p99_ms" "ms" (pct stats.Tracestats.barrier 0.99);
        m "stage.exec_p50_ms" "ms" (pct stats.Tracestats.exec 0.5);
        m "stage.exec_p99_ms" "ms" (pct stats.Tracestats.exec 0.99);
        m "proto.checkpoints_per_instance" "count"
          (ratio stats.Tracestats.checkpoints cfg.Config.z);
        m "proto.retained_slots" "slots"
          (fi
             (Array.fold_left
                (fun a (s : Report.instance_stats) -> a + s.Report.i_retained_slots)
                0 r.Report.per_instance));
        m "coord.detect_ms" "ms" detect_ms;
        m "coord.view_changes" "count" (fi r.Report.view_changes);
        m "coord.replacements" "count" (fi r.Report.replacements);
        m "coord.contract_bytes_per_txn" "bytes/txn"
          (per_txn r.Report.contract_bytes);
        m "client.build_s" "s" client_build_s;
        m "client.live_words_per_client" "words" client_words;
        m "client.resend_ratio" "share"
          (ratio (p.requests_sent - injected_batches) injected_batches);
        m "client.queue_depth_p99" "requests" ol.Report.queue_p99;
        m "exec.groups_per_window" "groups"
          (ratio stats.Tracestats.groups (Hashtbl.length stats.Tracestats.windows));
        m "exec.txns_per_group" "txns"
          (ratio stats.Tracestats.group_txns stats.Tracestats.groups);
        m "exec.conflict_keys_per_window" "keys"
          (ratio stats.Tracestats.conflict_keys
             (Hashtbl.length stats.Tracestats.windows));
        m "journal.records_per_flush" "records"
          (ratio r.Report.jrn_appends r.Report.jrn_flushes);
        m "journal.bytes_per_txn" "bytes/txn" (per_txn r.Report.jrn_bytes);
        m "journal.snapshot_bytes" "bytes"
          (ratio stats.Tracestats.snapshot_bytes stats.Tracestats.snapshots);
        m "journal.replay_rounds" "rounds" (fi r.Report.jrn_replayed_rounds);
        m "journal.replay_ms" "ms" p.replay_ms;
        m "journal.round_ns" "ns" u.Units.journal_round_ns;
        m "kv.apply_ns" "ns" u.Units.kv_apply_ns;
        m "recovery.resume_ms" "ms" p.resume_ms;
        m "recovery.resume_censored" "flag" (if p.resume_censored then 1.0 else 0.0);
        m "recovery.stuck_ms" "ms" p.stuck_ms;
        m "recovery.lag_rounds_end" "rounds" (fi p.lag_rounds);
        m "st.installs" "count" (fi r.Report.snap_installs);
        m "st.bytes_in" "bytes" (fi r.Report.snap_bytes_in);
        m "probe.outage_censored" "flag" (if p.outage_censored then 1.0 else 0.0);
        m "trace.overhead_share" "share" ((traced_wall /. p.wall_s) -. 1.0);
        m "trace.lost_events" "count" (fi stats.Tracestats.lost);
      ]
    @ List.map (fun (name, v) -> m ("wall_share." ^ name) "share" v) shares
    @ [
        m "wall_share.unattributed" "share"
          (1.0 -. List.fold_left (fun a (_, v) -> a +. v) 0.0 shares);
      ]
  in
  let failed =
    (if p.errors <> [] then 1 else 0)
    + if traced_errors <> [] || mismatch then 1 else 0
  in
  (metrics, 2, failed)
