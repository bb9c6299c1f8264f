(* RCC benchmark: one workload per process.

     rccbench.exe --workload multip-steady --seed 7 --seconds 10 --trace 0

   --trace 0 measures the end-to-end metrics. It first times Cluster.build
   (setup_s), then runs independent deployments of the workload with
   seeds seed, seed + 1000003, ... until at least [reps] deployments ran
   and another would end past --seconds of real time.
   Virtual metrics come from the first [reps] deployments, so they are
   an exact function of the seed: counts are pooled over them, latency
   percentiles and outage_ms are their mean (they carry no timing noise,
   and a median would snap to one latency-histogram bucket). wall_s is
   the median over all deployments.

   --trace 1 measures the per-layer metrics: one untraced and one traced
   deployment at the seed, the layers' unit costs and the client-pool
   build. Every deployment passes the correctness gate or the run
   reports correct = false and exits 1.

   Progress goes to stderr. Stdout gets the metrics as a table (name,
   value, unit, sample count) and, as its last line, the JSON result. *)

module Engine = Rcc_sim.Engine
module Cluster = Rcc_runtime.Cluster
module Config = Rcc_runtime.Config
module Report = Rcc_runtime.Report

open Util

let setup_samples = 30
let sub_seed seed k = seed + (k * 1_000_003)

(* Median of [setup_samples] builds, each after a full major GC, behind
   one unrecorded warm-up build that pays the process's first-touch
   costs. *)
let setup_s (w : Workload.t) ~seed =
  let cfg = w.Workload.config ~seed in
  let build () =
    settle ();
    let t0 = Sys.time () in
    let c = Cluster.build cfg in
    let dt = Sys.time () -. t0 in
    ignore (Sys.opaque_identity c);
    dt
  in
  ignore (build ());
  median (List.init setup_samples (fun _ -> build ()))

let gate_errors (r : Rep.t) ~seed =
  List.iter (fun e -> log "  gate FAILED (seed %d): %s" seed e) r.Rep.errors;
  r.Rep.errors <> []

let end_to_end (w : Workload.t) ~seed ~seconds =
  let setup = setup_s w ~seed in
  log "[%s] setup_s %.4f (median of %d builds)" w.Workload.name setup
    setup_samples;
  (* The deadline is real time so a run's length does not stretch on a
     busy machine; every measured time is process CPU time. *)
  let start = Unix.gettimeofday () in
  let k = ref 0 and failed = ref 0 in
  (* Only numbers are kept across deployments, never a cluster. *)
  let p50s = ref [] and p99s = ref [] and outages = ref [] and walls = ref [] in
  let committed = ref 0 and measured = ref 0.0 in
  let offered = ref 0 and failed_txns = ref 0 and missed = ref 0 in
  let peak = ref 0.0 in
  (* A wall-only deployment starts only if one as long as the last still
     ends before the deadline, so a long one does not overrun it. *)
  let last = ref 0.0 in
  while
    !k < w.Workload.reps
    || (Unix.gettimeofday () -. start +. !last < seconds && !failed = 0)
  do
    let t0 = Unix.gettimeofday () in
    let seed_k = sub_seed seed (!k mod w.Workload.reps) in
    settle ();
    let r = Rep.run w ~seed:seed_k in
    if gate_errors r ~seed:seed_k then incr failed;
    walls := r.Rep.report.Report.wall_seconds :: !walls;
    let report = r.Rep.report in
    if !k < w.Workload.reps then begin
      let cfg = Cluster.config r.Rep.cluster in
      p50s := (report.Report.p50_latency *. 1e3) :: !p50s;
      p99s := (report.Report.p99_latency *. 1e3) :: !p99s;
      outages := Probes.outage_ms r.Rep.outage :: !outages;
      committed := !committed + report.Report.committed_txns;
      measured :=
        !measured +. Engine.to_seconds (cfg.Config.duration - cfg.Config.warmup);
      offered := !offered + Rep.offered r;
      failed_txns := !failed_txns + Rep.failed r;
      missed := !missed + Rep.failed r + Rep.late r;
      (* Sampled here so the extra wall-only deployments, whose number
         depends on machine speed, cannot raise it. *)
      peak := peak_heap_mb ()
    end;
    log "[%s] deployment %d seed %d: wall %.3fs, %d events, p99 %.3fms, \
         outage %.1fms, %d failed txns"
      w.Workload.name !k seed_k report.Report.wall_seconds
      report.Report.sim_events
      (report.Report.p99_latency *. 1e3) (Probes.outage_ms r.Rep.outage)
      (Rep.failed r);
    last := Unix.gettimeofday () -. t0;
    incr k
  done;
  let nv = List.length !p50s in
  let share x = float_of_int x /. float_of_int (max 1 !offered) in
  let metrics =
    [
      { name = "committed_tps"; unit_ = "txn/s"; samples = nv;
        value = float_of_int !committed /. !measured };
      { name = "latency_p50_ms"; unit_ = "ms"; samples = nv; value = mean !p50s };
      { name = "latency_p99_ms"; unit_ = "ms"; samples = nv; value = mean !p99s };
      { name = "failed_share"; unit_ = "share"; samples = nv;
        value = share !failed_txns };
      { name = "slo_miss_share"; unit_ = "share"; samples = nv;
        value = share !missed };
      { name = "outage_ms"; unit_ = "ms"; samples = nv; value = mean !outages };
      { name = "wall_s"; unit_ = "s"; samples = List.length !walls;
        value = median !walls };
      { name = "setup_s"; unit_ = "s"; samples = setup_samples; value = setup };
      { name = "peak_heap_mb"; unit_ = "MB"; samples = 1; value = !peak };
    ]
  in
  (metrics, !k, !failed)

(* A failed run prints no numbers: neither the table nor the metrics. *)
let print_result ~correct ~attempted ~failed metrics =
  if correct then
  List.iter
    (fun m ->
      Printf.printf "%-36s %16.6f %-12s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value
              else "null")
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (if correct then body else "")

let usage () =
  Printf.eprintf
    "usage: rccbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: %s\n"
    (String.concat " " (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

let () =
  (* The GC setting of every entry point of the program (bin/rcc_run.ml). *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match Workload.find !workload with Some w -> w | None -> usage () in
  let metrics, attempted, failed =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else Layers.run w ~seed:!seed
  in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
