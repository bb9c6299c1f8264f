(* Journal tests: the deterministic fault-injecting disk, group-commit
   crash semantics, snapshot slot discipline, and restart-from-disk
   recovery — a QCheck property that journal replay reproduces in-memory
   execution at random crash points, and a torn/corrupt/lost sweep
   proving every injected fault truncates the replay to a valid prefix,
   never silently diverging from the clean history. The record layout's
   two-level check (frame checksum over the envelope, batch digests over
   the txn tail) gets targeted byte flips, a table of fault outcomes
   pinned across layout changes, and a property over live clusters that
   every logged batch's txns hash to its digest. *)

module Engine = Rcc_sim.Engine
module Costs = Rcc_sim.Costs
module Journal = Rcc_journal.Journal
module Sim_disk = Rcc_journal.Sim_disk
module Batch = Rcc_messages.Batch
module Ledger = Rcc_storage.Ledger
module Kv = Rcc_storage.Kv_store
module Txn_table = Rcc_storage.Txn_table
module Snapshot = Rcc_storage.Snapshot
module Acceptance = Rcc_replica.Acceptance
module Txn = Rcc_workload.Txn
module Rng = Rcc_common.Rng
module Keychain = Rcc_crypto.Keychain
module Config = Rcc_runtime.Config
module Cluster = Rcc_runtime.Cluster

let check = Alcotest.check

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let primaries = [ 0; 1 ]
let keychain = lazy (Keychain.create ~seed:42 ~n:4 ~clients:8)

(* Batches carry a write of the globally unique id, so no two generated
   batches share a digest and replay's duplicate-reply suppression never
   fires on distinct work. *)
let mk_batch ~id ~client ~rng =
  let extra = Rng.int rng 3 in
  let txns =
    Array.init (1 + extra) (fun i ->
        if i = 0 then { Txn.key = Rng.int rng 100; op = Txn.Write id }
        else
          {
            Txn.key = Rng.int rng 100;
            op =
              (if Rng.bool rng then Txn.Read else Txn.Write (Rng.int rng 1_000));
          })
  in
  Batch.create ~id ~client ~txns
    ~secret:(Keychain.client_secret (Lazy.force keychain) client)

(* One round = one acceptance per instance, in replay order. *)
let mk_round ~next_id ~rng ?(speculative = false) round =
  Array.of_list
    (List.map
       (fun instance ->
         let id = !next_id in
         incr next_id;
         {
           Acceptance.instance;
           round;
           batch = mk_batch ~id ~client:(Rng.int rng 8) ~rng;
           cert = [ 0; 1; 2 ];
           speculative;
           history = "";
         })
       primaries)

let mk_rounds ~seed ?(speculative = false) n =
  let rng = Rng.create seed in
  let next_id = ref (1 + (1_000_000 * seed)) in
  List.init n (fun round -> (round, mk_round ~next_id ~rng ~speculative round))

let fresh_state () =
  (Ledger.create ~primaries, Kv.create (), Txn_table.create ())

let recover_fresh ?(engine = Engine.create ()) disk =
  let ledger, store, txn_table = fresh_state () in
  (* Mirror the builder: the live store has undo-journaling on, which
     rollback replay depends on. *)
  Kv.enable_journal store;
  let rv =
    Journal.recover ~engine ~self:0 ~disk ~ledger ~store ~txn_table ~primaries
      ~materialize:true ()
  in
  (rv, ledger, store, txn_table)

(* The in-memory oracle: apply the batches directly, in (round, slot)
   order — what live execution would have produced. *)
let oracle_store rounds =
  let store = Kv.create () in
  List.iter
    (fun (_, slots) ->
      Array.iter
        (fun (a : Acceptance.t) ->
          Array.iter
            (fun txn -> ignore (Txn.apply store txn))
            a.Acceptance.batch.Batch.txns)
        slots)
    rounds;
  store

(* Log rounds through a journal writer and let the engine drain every
   scheduled flush; returns the journal so callers can keep appending. *)
let log_and_flush ~engine ~disk rounds =
  let j =
    Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 ()
  in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    rounds;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  j

(* --- Sim_disk ----------------------------------------------------------- *)

let test_disk_determinism () =
  let fill disk =
    for i = 0 to 19 do
      Sim_disk.append disk [ Printf.sprintf "record-%d" i; "tail" ]
    done
  in
  let a = Sim_disk.create ~seed:7 and b = Sim_disk.create ~seed:7 in
  Sim_disk.set_faults a (Sim_disk.uniform_faults 0.3);
  Sim_disk.set_faults b (Sim_disk.uniform_faults 0.3);
  fill a;
  fill b;
  check Alcotest.bool "faults actually injected" true
    (Sim_disk.faults_injected a > 0);
  check Alcotest.int "same seed, same fault count" (Sim_disk.faults_injected a)
    (Sim_disk.faults_injected b);
  check
    Alcotest.(list string)
    "same seed, same fault kinds" (Sim_disk.fault_log a) (Sim_disk.fault_log b);
  check Alcotest.string "same seed, same stored bytes" (Sim_disk.journal a)
    (Sim_disk.journal b);
  let clean = Sim_disk.create ~seed:7 in
  fill clean;
  check Alcotest.int "fault-free disk stores everything"
    (String.length (String.concat ""
       (List.concat
          (List.init 20 (fun i -> [ Printf.sprintf "record-%d" i; "tail" ])))))
    (Sim_disk.journal_bytes clean);
  check Alcotest.int "no spurious faults" 0 (Sim_disk.faults_injected clean)

let test_disk_snapshot_slots () =
  let disk = Sim_disk.create ~seed:3 in
  Sim_disk.write_snapshot disk ~seq:128 "AAAA";
  Sim_disk.write_snapshot disk ~seq:256 "BBBB";
  check
    Alcotest.(list (pair int string))
    "two slots, newest first"
    [ (256, "BBBB"); (128, "AAAA") ]
    (Sim_disk.snapshots disk);
  (* The third write recycles the OLDER slot; the newest survives. *)
  Sim_disk.write_snapshot disk ~seq:384 "CCCC";
  check
    Alcotest.(list (pair int string))
    "older slot recycled"
    [ (384, "CCCC"); (256, "BBBB") ]
    (Sim_disk.snapshots disk);
  (* A lost write must never destroy the existing slots. *)
  Sim_disk.set_faults disk { Sim_disk.torn = 0.0; corrupt = 0.0; lost = 1.0 };
  Sim_disk.write_snapshot disk ~seq:512 "DDDD";
  check
    Alcotest.(list (pair int string))
    "lost snapshot write leaves slots intact"
    [ (384, "CCCC"); (256, "BBBB") ]
    (Sim_disk.snapshots disk)

(* The journal area is exactly what landed, also when a flush tears. *)
let test_disk_torn_bytes () =
  let disk = Sim_disk.create ~seed:11 in
  Sim_disk.append disk [ "first-record"; "second" ];
  Sim_disk.set_faults disk { Sim_disk.torn = 1.0; corrupt = 0.0; lost = 0.0 };
  Sim_disk.append disk [ "torn-record-payload"; "never-lands" ];
  Sim_disk.set_faults disk Sim_disk.no_faults;
  Sim_disk.append disk [ "after" ];
  check Alcotest.(list string) "one tear" [ "torn" ] (Sim_disk.fault_log disk);
  let journal = Sim_disk.journal disk in
  check Alcotest.int "journal_bytes = length of the stored bytes"
    (String.length journal) (Sim_disk.journal_bytes disk);
  check Alcotest.bool "a strict prefix of the torn record landed" true
    (String.length journal < String.length "first-recordsecondtorn-record-payloadafter");
  check Alcotest.bool "stored bytes are clean prefix + tear + later flush"
    true
    (String.starts_with ~prefix:"first-recordsecond" journal
    && String.ends_with ~suffix:"after" journal);
  check Alcotest.string "re-reading an unchanged disk is stable" journal
    (Sim_disk.journal disk)

(* --- group commit ------------------------------------------------------- *)

let test_group_commit_crash () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:1 in
  let rounds = mk_rounds ~seed:5 2 in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    rounds;
  (* Buffered, not yet durable: nothing on disk until the flush fires. *)
  check Alcotest.int "nothing durable before flush" 0
    (Sim_disk.journal_bytes disk);
  check Alcotest.int "no round durable yet" (-1) (Journal.durable_round j);
  Engine.run engine ~until:(Engine.ms 10);
  check Alcotest.bool "flush persisted the records" true
    (Sim_disk.journal_bytes disk > 0);
  check Alcotest.int "durable frontier advanced" 1 (Journal.durable_round j);
  check Alcotest.int "one group-commit flush" 1 (Journal.flushes j);
  (* Crash with a dirty buffer: the un-flushed round is gone. *)
  let bytes_before = Sim_disk.journal_bytes disk in
  let round, slots = (2, mk_round ~next_id:(ref 900) ~rng:(Rng.create 9) 2) in
  Journal.log_round j ~round ~primaries slots;
  Journal.halt j;
  Engine.run engine ~until:(Engine.ms 20);
  check Alcotest.int "crash drops the dirty buffer" bytes_before
    (Sim_disk.journal_bytes disk);
  let rv, ledger, _, _ = recover_fresh disk in
  check Alcotest.int "recovery sees only the flushed prefix" 2
    rv.Journal.r_frontier;
  check Alcotest.int "ledger replayed to the durable frontier" 2
    (Ledger.next_round ledger)

(* --- recovery ----------------------------------------------------------- *)

let test_replay_matches_execution () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:2 in
  let rounds = mk_rounds ~seed:11 20 in
  let j = log_and_flush ~engine ~disk rounds in
  check Alcotest.bool "snapshotless run flushed" true (Journal.flushes j > 0);
  let rv, ledger, store, txn_table = recover_fresh disk in
  check Alcotest.int "frontier = rounds logged" 20 rv.Journal.r_frontier;
  check Alcotest.int "no snapshot involved" 0 rv.Journal.r_snapshot_seq;
  check Alcotest.int "every round replayed" 20 rv.Journal.r_replayed_rounds;
  check Alcotest.int "ledger rebuilt" 20 (Ledger.next_round ledger);
  check Alcotest.bool "chain validates" true
    (Result.is_ok (Ledger.validate ledger));
  check Alcotest.string "KV state = direct in-memory execution"
    (Kv.state_digest (oracle_store rounds))
    (Kv.state_digest store);
  check Alcotest.int "txn table covers every round" 20
    (Txn_table.rounds txn_table);
  (* Determinism: recovering the same disk twice is byte-identical. *)
  let _, ledger2, store2, _ = recover_fresh disk in
  check Alcotest.string "second recovery, same KV" (Kv.state_digest store)
    (Kv.state_digest store2);
  check Alcotest.string "second recovery, same head" (Ledger.head_hash ledger)
    (Ledger.head_hash ledger2)

let test_replay_rollback () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:4 in
  let keep = mk_rounds ~seed:21 3 in
  let doomed =
    List.map (fun (r, s) -> (r + 3, s)) (mk_rounds ~seed:22 2)
  in
  let redone =
    List.map (fun (r, s) -> (r + 3, s)) (mk_rounds ~seed:23 2)
  in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    (keep @ doomed);
  (* A view change unwinds the speculative tail, then different batches
     land at the same rounds — exactly what the rollback record exists
     to make durable. *)
  Journal.log_rollback j ~frontier:3;
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    redone;
  Engine.run engine ~until:(Engine.ms 100);
  let rv, ledger, store, _ = recover_fresh disk in
  check Alcotest.int "frontier past the re-done rounds" 5 rv.Journal.r_frontier;
  check Alcotest.bool "chain validates" true
    (Result.is_ok (Ledger.validate ledger));
  check Alcotest.string "rollback undone: state = keep + redone only"
    (Kv.state_digest (oracle_store (keep @ redone)))
    (Kv.state_digest store)

let test_replay_stops_at_unproven_speculation () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:6 in
  let rounds = mk_rounds ~seed:31 ~speculative:true 10 in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  List.iter
    (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
    rounds;
  (* The stable floor proves rounds < 8; speculative rounds at or past it
     may have been rolled back in the lost suffix, so replay must not
     trust them. *)
  Journal.log_stable j ~floor:8;
  Engine.run engine ~until:(Engine.ms 100);
  let rv, _, store, _ = recover_fresh disk in
  check Alcotest.int "replay stops at the attest floor" 8 rv.Journal.r_frontier;
  check Alcotest.string "state covers exactly the proven prefix"
    (Kv.state_digest
       (oracle_store (List.filter (fun (r, _) -> r < 8) rounds)))
    (Kv.state_digest store)

let test_snapshot_plus_suffix () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:8 in
  let rounds = mk_rounds ~seed:41 10 in
  let j = log_and_flush ~engine ~disk rounds in
  (* Build the checkpoint the way the builder does: from the recovered
     (= live) state at the boundary. *)
  let _, ledger, store, _ = recover_fresh disk in
  let snap =
    (* Checkpoint state at the boundary: KV as of round 8, not the
       frontier — the builder snapshots only when execution has settled
       at the boundary. *)
    {
      Snapshot.seq = 8;
      blocks = Ledger.prefix ledger ~upto:8;
      kv =
        Some
          (Kv.entries
             (oracle_store (List.filter (fun (r, _) -> r < 8) rounds)));
      replied = [];
    }
  in
  Journal.write_snapshot j ~seq:8 snap;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  check Alcotest.int "snapshot written" 1 (Journal.snapshots_written j);
  let rv, ledger2, store2, _ = recover_fresh disk in
  check Alcotest.int "recovery starts from the snapshot" 8
    rv.Journal.r_snapshot_seq;
  check Alcotest.int "only the suffix replayed" 2 rv.Journal.r_replayed_rounds;
  check Alcotest.int "frontier unchanged" 10 rv.Journal.r_frontier;
  check Alcotest.string "snapshot + suffix = full replay"
    (Kv.state_digest store)
    (Kv.state_digest store2);
  check Alcotest.string "same chain head" (Ledger.head_hash ledger)
    (Ledger.head_hash ledger2);
  (* A corrupted newer snapshot must fall back to the older good slot,
     never poison recovery. *)
  Sim_disk.set_faults disk { Sim_disk.torn = 0.0; corrupt = 1.0; lost = 0.0 };
  let snap9 = { snap with Snapshot.seq = 9; blocks = Ledger.prefix ledger ~upto:9 } in
  Journal.write_snapshot j ~seq:9 snap9;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  Sim_disk.set_faults disk Sim_disk.no_faults;
  let rv3, _, store3, _ = recover_fresh disk in
  check Alcotest.int "corrupt slot skipped, older one used" 8
    rv3.Journal.r_snapshot_seq;
  check Alcotest.string "state still correct" (Kv.state_digest store)
    (Kv.state_digest store3)

(* --- record checks: envelope checksum, tail digests ---------------------- *)

(* Journal [rounds] on an honest disk, one flush per round, returning the
   byte offset each record's frame ends at. Round 0 also carries the view
   record that precedes it. *)
let record_ends rounds =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:9 in
  let j = Journal.attach ~engine ~costs:Costs.default ~disk ~self:0 () in
  let ends =
    List.map
      (fun (round, slots) ->
        Journal.log_round j ~round ~primaries slots;
        Engine.run engine ~until:(Engine.now engine + Engine.ms 10);
        Sim_disk.journal_bytes disk)
      rounds
  in
  (Sim_disk.journal disk, Array.of_list ends)

let flip s pos =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Bytes.to_string b

let recover_bytes bytes =
  let disk = Sim_disk.create ~seed:0 in
  Sim_disk.append disk [ bytes ];
  recover_fresh disk

(* The record frame header: magic, type, u64 body length, checksum. *)
let frame_header = 4 + 1 + 8 + 8

let test_tail_flip_rejected () =
  let rounds = mk_rounds ~seed:71 6 in
  let journal, ends = record_ends rounds in
  let target = 3 in
  let start = ends.(target - 1) in
  let txns =
    Array.fold_left
      (fun acc (a : Acceptance.t) -> acc + Array.length a.Acceptance.batch.Batch.txns)
      0 (snd (List.nth rounds target))
  in
  (* The tail is the record's last [24 * txns] bytes; flip a byte of the
     last txn's value, which still decodes, so only the batch digest can
     refute it. *)
  let pos = ends.(target) - 5 in
  check Alcotest.bool "flipped byte lies in the txn tail" true
    (pos >= ends.(target) - (Txn.encoded_size * txns));
  let bad = flip journal pos in
  check Alcotest.string
    "header and envelope untouched, so the checksum still matches"
    (String.sub journal start (pos - start))
    (String.sub bad start (pos - start));
  let rv, ledger, store, _ = recover_bytes bad in
  check Alcotest.int "replay stops at the flipped record" target
    rv.Journal.r_frontier;
  check Alcotest.int "everything from that record on is dropped"
    (String.length journal - start) rv.Journal.r_dropped_bytes;
  check Alcotest.bool "chain validates" true
    (Result.is_ok (Ledger.validate ledger));
  check Alcotest.string "state is the clean prefix"
    (Kv.state_digest
       (oracle_store (List.filter (fun (r, _) -> r < target) rounds)))
    (Kv.state_digest store)

let test_envelope_flip_rejected () =
  let rounds = mk_rounds ~seed:72 6 in
  let journal, ends = record_ends rounds in
  let target = 2 in
  let start = ends.(target - 1) in
  (* Byte 4 of the big-endian round number: the body still parses, as a
     record for round [target + 2^30], which only the checksum refutes. *)
  let bad = flip journal (start + frame_header + 4) in
  let rv, _, _, _ = recover_bytes bad in
  check Alcotest.int "replay stops at the flipped record" target
    rv.Journal.r_frontier;
  check Alcotest.int "everything from that record on is dropped"
    (String.length journal - start) rv.Journal.r_dropped_bytes;
  (* A flip in the checksum itself is caught the same way. *)
  let bad = flip journal (start + frame_header - 1) in
  let rv, _, _, _ = recover_bytes bad in
  check Alcotest.int "checksum flip truncates there too" target
    rv.Journal.r_frontier;
  let rv, _, _, _ = recover_bytes journal in
  check Alcotest.int "the clean journal replays in full" 6 rv.Journal.r_frontier

(* Snapshot slots hold [magic | u64 length | 8-byte SHA-256 prefix |
   Snapshot.encode]: the blob format recovery and older disks rely on. *)
let test_snapshot_blob_layout () =
  let engine = Engine.create () in
  let disk = Sim_disk.create ~seed:12 in
  let rounds = mk_rounds ~seed:73 4 in
  let j = log_and_flush ~engine ~disk rounds in
  let _, ledger, store, _ = recover_fresh disk in
  let snap =
    { Snapshot.seq = 4; blocks = Ledger.prefix ledger ~upto:4;
      kv = Some (Kv.entries store); replied = [] }
  in
  Journal.write_snapshot j ~seq:4 snap;
  Engine.run engine ~until:(Engine.now engine + Engine.ms 100);
  let body = Snapshot.encode snap in
  let expected =
    String.concat ""
      [
        "RJS1";
        Rcc_common.Bytes_util.u64_string (Int64.of_int (String.length body));
        String.sub (Rcc_crypto.Sha256.digest body) 0 8;
        body;
      ]
  in
  check Alcotest.(list (pair int string)) "slot holds the framed snapshot"
    [ (4, expected) ] (Sim_disk.snapshots disk)

(* --- fault sweep: detected or truncated, never divergent ---------------- *)

let test_fault_sweep () =
  let rounds = mk_rounds ~seed:51 30 in
  (* Clean reference: what an honest disk recovers to. *)
  let clean_disk = Sim_disk.create ~seed:100 in
  ignore (log_and_flush ~engine:(Engine.create ()) ~disk:clean_disk rounds);
  let _, clean_ledger, _, _ = recover_fresh clean_disk in
  let faults_seen = ref 0 and truncations = ref 0 in
  List.iter
    (fun (seed, p) ->
      let disk = Sim_disk.create ~seed in
      Sim_disk.set_faults disk (Sim_disk.uniform_faults p);
      ignore (log_and_flush ~engine:(Engine.create ()) ~disk rounds);
      faults_seen := !faults_seen + Sim_disk.faults_injected disk;
      let rv, ledger, store, _ = recover_fresh disk in
      let f = rv.Journal.r_frontier in
      if f < 30 then incr truncations;
      check Alcotest.bool
        (Printf.sprintf "seed %d p=%.2f: frontier bounded" seed p)
        true (f <= 30);
      (* The recovered prefix must be byte-identical to the clean
         history — a lying disk loses data, it never rewrites it. *)
      check Alcotest.bool
        (Printf.sprintf "seed %d p=%.2f: prefix matches clean history" seed p)
        true
        (Ledger.prefix ledger ~upto:f = Ledger.prefix clean_ledger ~upto:f);
      check Alcotest.string
        (Printf.sprintf "seed %d p=%.2f: state matches clean prefix" seed p)
        (Kv.state_digest
           (oracle_store (List.filter (fun (r, _) -> r < f) rounds)))
        (Kv.state_digest store))
    [ (201, 0.05); (202, 0.1); (203, 0.2); (204, 0.3); (205, 0.5) ];
  check Alcotest.bool "the sweep exercised injected faults" true
    (!faults_seen > 0);
  check Alcotest.bool "at least one recovery was truncated" true
    (!truncations > 0)

(* The recovery verdict per fault row — (frontier, dropped bytes, rounds
   replayed) — pinned to the values the previous record layout produced.
   A layout change may move bytes around inside a record, but every
   record keeps its length and every fault must still be caught at the
   same record, so each row must come out exactly the same. *)
let fault_modes =
  [
    ("torn", fun p -> { Sim_disk.torn = p; corrupt = 0.0; lost = 0.0 });
    ("corrupt", fun p -> { Sim_disk.torn = 0.0; corrupt = p; lost = 0.0 });
    ("lost", fun p -> { Sim_disk.torn = 0.0; corrupt = 0.0; lost = p });
    ("all", Sim_disk.uniform_faults);
  ]

(* (mode, rate, disk seed) -> (frontier, dropped bytes, replayed rounds) *)
let pinned_outcomes =
  [
    (("torn", 0.02, 301), (8, 256, 8));
    (("torn", 0.02, 302), (40, 0, 40));
    (("torn", 0.02, 303), (38, 413, 38));
    (("torn", 0.05, 301), (8, 256, 8));
    (("torn", 0.05, 302), (40, 0, 40));
    (("torn", 0.05, 303), (5, 305, 5));
    (("torn", 0.10, 301), (7, 160, 7));
    (("torn", 0.10, 302), (7, 58, 7));
    (("torn", 0.10, 303), (5, 305, 5));
    (("torn", 0.30, 301), (0, 444, 0));
    (("torn", 0.30, 302), (0, 27, 0));
    (("torn", 0.30, 303), (0, 10, 0));
    (("corrupt", 0.02, 301), (8, 16592, 8));
    (("corrupt", 0.02, 302), (40, 0, 40));
    (("corrupt", 0.02, 303), (38, 1070, 38));
    (("corrupt", 0.05, 301), (8, 16592, 8));
    (("corrupt", 0.05, 302), (40, 0, 40));
    (("corrupt", 0.05, 303), (5, 18125, 5));
    (("corrupt", 0.10, 301), (7, 17103, 7));
    (("corrupt", 0.10, 302), (7, 17103, 7));
    (("corrupt", 0.10, 303), (5, 18125, 5));
    (("corrupt", 0.30, 301), (0, 20752, 0));
    (("corrupt", 0.30, 302), (0, 20752, 0));
    (("corrupt", 0.30, 303), (0, 20797, 0));
    (("lost", 0.02, 301), (8, 0, 8));
    (("lost", 0.02, 302), (40, 0, 40));
    (("lost", 0.02, 303), (38, 0, 38));
    (("lost", 0.05, 301), (8, 0, 8));
    (("lost", 0.05, 302), (40, 0, 40));
    (("lost", 0.05, 303), (5, 0, 5));
    (("lost", 0.10, 301), (7, 0, 7));
    (("lost", 0.10, 302), (7, 0, 7));
    (("lost", 0.10, 303), (5, 0, 5));
    (("lost", 0.30, 301), (0, 0, 0));
    (("lost", 0.30, 302), (0, 0, 0));
    (("lost", 0.30, 303), (0, 0, 0));
    (("all", 0.02, 301), (2, 0, 2));
    (("all", 0.02, 302), (13, 438, 13));
    (("all", 0.02, 303), (12, 13454, 12));
    (("all", 0.05, 301), (2, 405, 2));
    (("all", 0.05, 302), (13, 438, 13));
    (("all", 0.05, 303), (1, 230, 1));
    (("all", 0.10, 301), (1, 3195, 1));
    (("all", 0.10, 302), (1, 10240, 1));
    (("all", 0.10, 303), (1, 230, 1));
    (("all", 0.30, 301), (0, 34, 0));
    (("all", 0.30, 302), (0, 22, 0));
    (("all", 0.30, 303), (0, 247, 0));
  ]

let test_fault_outcomes_pinned () =
  let rounds = mk_rounds ~seed:61 40 in
  List.iter
    (fun ((mode, p, seed), expected) ->
      let disk = Sim_disk.create ~seed in
      Sim_disk.set_faults disk ((List.assoc mode fault_modes) p);
      ignore (log_and_flush ~engine:(Engine.create ()) ~disk rounds);
      let rv, _, _, _ = recover_fresh disk in
      check
        Alcotest.(triple int int int)
        (Printf.sprintf "%s p=%.2f seed %d: frontier, dropped, replayed" mode
           p seed)
        expected
        ( rv.Journal.r_frontier,
          rv.Journal.r_dropped_bytes,
          rv.Journal.r_replayed_rounds ))
    pinned_outcomes

(* What the scan's tail check relies on: every acceptance a live replica
   logs with txns carries the SHA-256 of exactly their encodings as its
   digest. A logged batch breaking it would fail that check and surface
   as dropped bytes on an honest disk. So every disk must scan clean, and
   a disk without speculative rounds must replay to its durable frontier
   (a replica kept in the dark may have logged nothing). *)
let prop_logged_digests =
  qtest ~count:8 "logged batches hash to their digests"
    QCheck2.Gen.(
      triple (int_range 1 10_000)
        (oneofl [ Config.MultiP; Config.MultiZ; Config.MultiC ])
        (oneofl
           [
             Config.No_fault;
             Config.Dark { instance = 0; victims = [ 3 ] };
             Config.Client_dos { instance = 1 };
           ]))
    (fun (seed, protocol, fault) ->
      let cfg =
        Config.make ~protocol ~n:4 ~batch_size:10 ~clients:40 ~records:5_000
          ~duration:(Engine.of_seconds 0.3) ~warmup:(Engine.of_seconds 0.05)
          ~fault ~seed ~journal:true ()
      in
      let cluster = Cluster.build cfg in
      ignore (Cluster.run cluster);
      let replicas = List.init cfg.Config.n Fun.id in
      let durable r =
        Journal.durable_round (Option.get (Cluster.journal_of cluster r))
      in
      List.exists (fun r -> durable r > 0) replicas
      && List.for_all
           (fun r ->
             let ledger, store, txn_table = fresh_state () in
             let rv =
               Journal.recover ~engine:(Engine.create ()) ~self:r
                 ~disk:(Cluster.disk cluster r) ~ledger ~store ~txn_table
                 ~primaries ~materialize:false ()
             in
             rv.Journal.r_dropped_bytes = 0
             && (protocol = Config.MultiZ
                || rv.Journal.r_frontier = durable r + 1))
           replicas)

(* --- QCheck: random crash points ---------------------------------------- *)

let prop_crash_point =
  qtest ~count:40 "replay == execution at random crash points"
    QCheck2.Gen.(
      triple (int_range 0 1_000) (int_range 1 20) (int_range 0 6))
    (fun (seed, durable_n, lost_n) ->
      let engine = Engine.create () in
      let disk = Sim_disk.create ~seed:(seed + 1) in
      let durable = mk_rounds ~seed durable_n in
      let j = log_and_flush ~engine ~disk durable in
      (* More work arrives, then the power goes out before the group
         commit: everything past the flushed prefix is lost. *)
      let lost =
        List.map (fun (r, s) -> (r + durable_n, s)) (mk_rounds ~seed:(seed + 7) lost_n)
      in
      List.iter
        (fun (round, slots) -> Journal.log_round j ~round ~primaries slots)
        lost;
      Journal.halt j;
      let rv, ledger, store, _ = recover_fresh disk in
      rv.Journal.r_frontier = durable_n
      && Ledger.next_round ledger = durable_n
      && Result.is_ok (Ledger.validate ledger)
      && String.equal
           (Kv.state_digest (oracle_store durable))
           (Kv.state_digest store))

let suite =
  ( "journal",
    [
      Alcotest.test_case "sim-disk determinism" `Quick test_disk_determinism;
      Alcotest.test_case "sim-disk snapshot slots" `Quick
        test_disk_snapshot_slots;
      Alcotest.test_case "sim-disk torn write bytes" `Quick
        test_disk_torn_bytes;
      Alcotest.test_case "group commit crash" `Quick test_group_commit_crash;
      Alcotest.test_case "replay matches execution" `Quick
        test_replay_matches_execution;
      Alcotest.test_case "rollback record" `Quick test_replay_rollback;
      Alcotest.test_case "unproven speculation truncates" `Quick
        test_replay_stops_at_unproven_speculation;
      Alcotest.test_case "snapshot + suffix" `Quick test_snapshot_plus_suffix;
      Alcotest.test_case "tail flip fails its batch digest" `Quick
        test_tail_flip_rejected;
      Alcotest.test_case "envelope flip fails the checksum" `Quick
        test_envelope_flip_rejected;
      Alcotest.test_case "snapshot blob layout" `Quick
        test_snapshot_blob_layout;
      Alcotest.test_case "fault sweep never diverges" `Quick test_fault_sweep;
      Alcotest.test_case "fault outcomes pinned" `Quick
        test_fault_outcomes_pinned;
      prop_crash_point;
      prop_logged_digests;
    ] )
