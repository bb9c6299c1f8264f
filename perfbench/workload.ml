(* The benchmark's three open-loop deployments (n = 16, batch 100,
   Poisson arrivals, the default network of Config.make: 100 us one-way
   latency with 60 us jitter and 4 Gbit/s NICs). *)

module Engine = Rcc_sim.Engine
module Config = Rcc_runtime.Config

type fault_schedule = {
  crash_at : Engine.time;  (** primary of instance 1 goes dead *)
  restart_at : Engine.time;  (** Restart_from_disk on the same replica *)
}

type t = {
  name : string;
  config : seed:int -> Config.t;
  faults : fault_schedule option;
  reps : int;
      (** deployments (seeds) per --trace 0 run that define the virtual
          metrics *)
}

let n = 16

(* Every fault-free deployment spans about four intervals of
   Config.checkpoint_interval (128 slots) per instance, so the measured
   window holds stable checkpoints, slot-log GC and the heap they bound,
   not only the startup stretch before the first one: steady orders
   ~500 slots/s per instance (3 or 4 stable checkpoints in 1.0 s,
   depending on the seed), multiz ~1000 (3 or 4 in 0.5 s). A run holds many
   deployments: the share of txns in flight at the cut (failed_share) is
   one random snapshot per deployment, and only their number narrows
   it. *)
let steady ~seed =
  Config.make ~protocol:Config.MultiP ~n ~batch_size:100 ~clients:10_000
    ~arrival_rate:300_000.0 ~arrival_process:Config.Poisson ~theta:0.9
    ~write_ratio:0.9 ~exec_mode:Config.Exec_serial
    ~duration:(Engine.of_seconds 1.0) ~warmup:(Engine.of_seconds 0.1) ~seed ()

let multiz_parallel ~seed =
  Config.make ~protocol:Config.MultiZ ~n ~batch_size:100 ~clients:1_000_000
    ~arrival_rate:600_000.0 ~arrival_process:Config.Poisson ~theta:0.3
    ~write_ratio:0.9 ~exec_mode:Config.Exec_parallel ~exec_threads:4
    ~duration:(Engine.of_seconds 0.5) ~warmup:(Engine.of_seconds 0.05) ~seed ()

(* The prototype schedule (crash 1.0 s, restart 2.0 s, end 4.0 s) peaked
   at 1.9 GB of heap, most of it journal and contract history; this one
   keeps the same phases (crash after warmup, restart after the primary
   was replaced at ~0.53 s, recovery window) at about half of that. *)
let crash_restart ~seed =
  {
    (steady ~seed) with
    Config.journal = true;
    replica_timeout = Engine.of_seconds 0.5;
    warmup = Engine.of_seconds 0.3;
    duration = Engine.of_seconds 2.4;
  }

let all =
  [
    { name = "multip-steady"; config = steady; faults = None; reps = 32 };
    {
      name = "multiz-1m-parallel";
      config = multiz_parallel;
      faults = None;
      reps = 32;
    };
    {
      name = "multip-crash-restart";
      config = crash_restart;
      faults =
        Some
          {
            crash_at = Engine.of_seconds 0.6;
            restart_at = Engine.of_seconds 1.4;
          };
      reps = 3;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
