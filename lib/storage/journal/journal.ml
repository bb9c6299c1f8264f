module Engine = Rcc_sim.Engine
module Cpu = Rcc_sim.Cpu
module Costs = Rcc_sim.Costs
module Bytes_util = Rcc_common.Bytes_util
module Batch = Rcc_messages.Batch
module Acceptance = Rcc_replica.Acceptance

let record_magic = "RJL1"
let snap_magic = "RJS1"
let checksum_len = 8
let max_body = 16_777_216
let txn_size = Rcc_workload.Txn.encoded_size

(* Group-commit policy: flush at most [flush_interval] after the first
   buffered record, or immediately once [flush_bytes] accumulate. *)
let flush_interval = Engine.us 200
let flush_bytes = 65_536

(* --- framing -------------------------------------------------------------- *)

(* Records and snapshot blobs share one frame:
   [prefix | u64 body length | checksum | body], where [prefix] is the
   record magic plus a type byte, or the snapshot magic alone, and the
   checksum is the first [checksum_len] bytes of the SHA-256 of the
   body's first [covered] bytes. *)
let header_len prefix = String.length prefix + 8 + checksum_len
let record_prefix kind = record_magic ^ String.make 1 kind

let checksum s ~off ~len =
  String.sub (Rcc_crypto.Sha256.digest_sub s ~off ~len) 0 checksum_len

(* Fill in the header of [frame], whose body is already in place. *)
let seal frame ~prefix ~covered =
  let h = header_len prefix in
  let sum = checksum (Bytes.unsafe_to_string frame) ~off:h ~len:covered in
  Bytes.blit_string prefix 0 frame 0 (String.length prefix);
  Bytes.set_int64_be frame (String.length prefix)
    (Int64.of_int (Bytes.length frame - h));
  Bytes.blit_string sum 0 frame (h - checksum_len) checksum_len;
  Bytes.unsafe_to_string frame

(* The body [(offset, length)] of the frame at [pos] in [s], if [s]
   holds a whole frame there that starts with [prefix]. *)
let frame_body s ~pos ~prefix =
  let h = header_len prefix in
  let plen = String.length prefix in
  if pos + h > String.length s then None
  else if not (String.equal (String.sub s pos plen) prefix) then None
  else
    let len = Int64.to_int (String.get_int64_be s (pos + plen)) in
    if len < 0 || len > String.length s - pos - h then None
    else Some (pos + h, len)

let checksum_ok s ~pos ~prefix ~covered =
  let h = header_len prefix in
  String.equal
    (String.sub s (pos + h - checksum_len) checksum_len)
    (checksum s ~off:(pos + h) ~len:covered)

(* --- record encoding ---------------------------------------------------- *)

(* A round record's body is an envelope followed by a txn tail. The
   envelope holds the round, the primaries and, per slot, instance,
   speculative flag, certificate, batch id, client, txn count, digest and
   signature; the tail holds every slot's 24-byte txn encodings, in slot
   order. The frame checksum covers the envelope only; each non-empty
   txn run in the tail is authenticated by the batch digest the envelope
   carries, which is the SHA-256 of exactly those encodings
   ({!Batch.compute_digest}). Every body byte is thus covered by SHA-256,
   without hashing the bulk of the record twice per write. *)

type writer = { buf : Bytes.t; mutable pos : int }

let w_int w v =
  Bytes.set_int64_be w.buf w.pos (Int64.of_int v);
  w.pos <- w.pos + 8

let w_string w s =
  w_int w (String.length s);
  Bytes.blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

let w_int_list w l =
  w_int w (List.length l);
  List.iter (w_int w) l

let int_list_size l = 8 * (1 + List.length l)

let slot_envelope_size (a : Acceptance.t) =
  let b = a.batch in
  8 + 1 + int_list_size a.cert
  + (3 * 8) (* id, client, txn count *)
  + (8 + String.length b.Batch.digest)
  + (8 + String.length b.Batch.signature)

(* Encode a frame whose body is [size] bytes with its first [covered]
   bytes checksummed, writing the body with [fill]; one allocation. *)
let encode_frame ~prefix ~size ~covered fill =
  let h = header_len prefix in
  let w = { buf = Bytes.create (h + size); pos = h } in
  fill w;
  assert (w.pos = Bytes.length w.buf);
  seal w.buf ~prefix ~covered

let round_record ~round ~primaries (ordered : Acceptance.t array) =
  let envelope =
    Array.fold_left
      (fun acc a -> acc + slot_envelope_size a)
      (8 + int_list_size primaries + 8)
      ordered
  in
  let tail =
    Array.fold_left
      (fun acc (a : Acceptance.t) ->
        acc + (txn_size * Array.length a.batch.Batch.txns))
      0 ordered
  in
  encode_frame ~prefix:(record_prefix 'R') ~size:(envelope + tail)
    ~covered:envelope (fun w ->
      w_int w round;
      w_int_list w primaries;
      w_int w (Array.length ordered);
      Array.iter
        (fun (a : Acceptance.t) ->
          let b = a.batch in
          w_int w a.instance;
          Bytes.set w.buf w.pos (if a.speculative then '\x01' else '\x00');
          w.pos <- w.pos + 1;
          w_int_list w a.cert;
          w_int w b.Batch.id;
          w_int w b.Batch.client;
          w_int w (Array.length b.Batch.txns);
          w_string w b.Batch.digest;
          w_string w b.Batch.signature)
        ordered;
      Array.iter
        (fun (a : Acceptance.t) ->
          Array.iter
            (fun txn ->
              Rcc_workload.Txn.encode_into w.buf w.pos txn;
              w.pos <- w.pos + txn_size)
            a.batch.Batch.txns)
        ordered)

let small_record kind l =
  let size = 8 * List.length l in
  encode_frame ~prefix:(record_prefix kind) ~size ~covered:size (fun w ->
      List.iter (w_int w) l)

let int_record kind v = small_record kind [ v ]
let view_record primaries = small_record 'V' (List.length primaries :: primaries)

(* --- writer ------------------------------------------------------------- *)

type t = {
  engine : Engine.t;
  costs : Costs.t;
  disk : Sim_disk.t;
  self : Rcc_common.Ids.replica_id;
  io : Cpu.server;
  mutable pending : string list;  (* newest first *)
  mutable pending_records : int;
  mutable pending_bytes : int;
  mutable pending_hi : int;  (* highest round in the pending buffer *)
  mutable flush_scheduled : bool;
  mutable halted : bool;
  mutable last_primaries : Rcc_common.Ids.replica_id list;
  mutable appends : int;
  mutable flushes : int;
  mutable bytes_flushed : int;
  mutable snapshots_written : int;
  mutable durable : int;
}

let attach ~engine ~costs ~disk ~self () =
  {
    engine;
    costs;
    disk;
    self;
    io = Cpu.server engine ~owner:self ~name:(Printf.sprintf "r%d-disk" self) ();
    pending = [];
    pending_records = 0;
    pending_bytes = 0;
    pending_hi = -1;
    flush_scheduled = false;
    halted = false;
    last_primaries = [];
    appends = 0;
    flushes = 0;
    bytes_flushed = 0;
    snapshots_written = 0;
    durable = -1;
  }

let io_cost t nbytes =
  t.costs.Costs.fsync
  + int_of_float (t.costs.Costs.disk_per_byte *. float_of_int nbytes)

let trace_new_faults t before =
  if Engine.tracing t.engine then begin
    let log = Sim_disk.fault_log t.disk in
    List.iteri
      (fun i kind ->
        if i >= before then
          Engine.trace t.engine ~replica:t.self ~instance:(-1)
            (Rcc_trace.Event.Journal_fault { kind }))
      log
  end

let flush t =
  if (not t.halted) && t.pending_records > 0 then begin
    let records = List.rev t.pending in
    let nrec = t.pending_records in
    let nbytes = t.pending_bytes in
    let hi = t.pending_hi in
    t.pending <- [];
    t.pending_records <- 0;
    t.pending_bytes <- 0;
    t.flush_scheduled <- false;
    (* The records become durable when the fsync completes on the disk
       lane; a crash in between loses them, exactly like a real page
       cache. *)
    Cpu.submit t.io ~cost:(io_cost t nbytes) (fun () ->
        if not t.halted then begin
          let before = Sim_disk.faults_injected t.disk in
          Sim_disk.append t.disk records;
          trace_new_faults t before;
          t.flushes <- t.flushes + 1;
          t.bytes_flushed <- t.bytes_flushed + nbytes;
          if hi > t.durable then t.durable <- hi;
          if Engine.tracing t.engine then
            Engine.trace t.engine ~replica:t.self ~instance:(-1)
              (Rcc_trace.Event.Journal_flush
                 { records = nrec; bytes = nbytes; durable = t.durable })
        end)
  end

let append t ?round record =
  if not t.halted then begin
    t.appends <- t.appends + 1;
    t.pending <- record :: t.pending;
    t.pending_records <- t.pending_records + 1;
    t.pending_bytes <- t.pending_bytes + String.length record;
    (match round with
    | Some r when r > t.pending_hi -> t.pending_hi <- r
    | _ -> ());
    if t.pending_bytes >= flush_bytes then flush t
    else if not t.flush_scheduled then begin
      t.flush_scheduled <- true;
      Engine.schedule_after t.engine flush_interval (fun () -> flush t)
    end
  end

let log_round t ~round ~primaries ordered =
  if primaries <> t.last_primaries then begin
    t.last_primaries <- primaries;
    append t (view_record primaries)
  end;
  append t ~round (round_record ~round ~primaries ordered)

let log_rollback t ~frontier = append t (int_record 'B' frontier)
let log_stable t ~floor = append t (int_record 'A' floor)

let write_snapshot t ~seq snapshot =
  if not t.halted then begin
    let body = Rcc_storage.Snapshot.encode snapshot in
    let len = String.length body in
    let blob =
      encode_frame ~prefix:snap_magic ~size:len ~covered:len (fun w ->
          Bytes.blit_string body 0 w.buf w.pos len;
          w.pos <- w.pos + len)
    in
    Cpu.submit t.io ~cost:(io_cost t (String.length blob)) (fun () ->
        if not t.halted then begin
          let before = Sim_disk.faults_injected t.disk in
          Sim_disk.write_snapshot t.disk ~seq blob;
          trace_new_faults t before;
          t.snapshots_written <- t.snapshots_written + 1;
          if Engine.tracing t.engine then
            Engine.trace t.engine ~replica:t.self ~instance:(-1)
              (Rcc_trace.Event.Journal_snapshot
                 { seq; bytes = String.length blob })
        end)
  end

let halt t =
  t.halted <- true;
  t.pending <- [];
  t.pending_records <- 0;
  t.pending_bytes <- 0

let disk t = t.disk
let appends t = t.appends
let flushes t = t.flushes
let bytes_flushed t = t.bytes_flushed
let snapshots_written t = t.snapshots_written
let durable_round t = t.durable

(* --- decoding ----------------------------------------------------------- *)

exception Bad of string

(* A cursor over one record body: [buf.[pos .. limit)]. *)
type reader = { buf : string; mutable pos : int; limit : int }

let need r n = if n > r.limit - r.pos then raise (Bad "truncated")

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let len = r_int r in
  if len < 0 || len > max_body then raise (Bad "bad string length");
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let r_int_list r =
  let len = r_int r in
  if len < 0 || len > 1_000_000 then raise (Bad "bad list length");
  need r (8 * len);
  List.init len (fun _ -> r_int r)

let r_bool r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> raise (Bad "bad boolean")

(* One batch's txn run from the tail, accepted only if it hashes to the
   digest the (already authenticated) envelope carries. *)
let r_txns r ~ntxns ~digest =
  if ntxns = 0 then [||]
  else begin
    let len = ntxns * txn_size in
    need r len;
    if
      not
        (String.equal digest
           (Rcc_crypto.Sha256.digest_sub r.buf ~off:r.pos ~len))
    then raise (Bad "txn digest mismatch");
    let txns =
      Array.init ntxns (fun i ->
          match Rcc_workload.Txn.decode r.buf (r.pos + (i * txn_size)) with
          | Ok txn -> txn
          | Error e -> raise (Bad e))
    in
    r.pos <- r.pos + len;
    txns
  end

type slot_rec = {
  sr_instance : int;
  sr_speculative : bool;
  sr_cert : int list;
  sr_batch : Batch.t;
}

type round_rec = {
  rr_round : int;
  rr_primaries : int list;
  rr_slots : slot_rec list;
}

type record =
  | Round of round_rec
  | Attest of int
  | Rollback of int
  | View of int list

(* Read one slot's envelope fields; the returned thunk reads its txns
   from the tail, once the whole envelope has been authenticated. *)
let r_slot r =
  let sr_instance = r_int r in
  let sr_speculative = r_bool r in
  let sr_cert = r_int_list r in
  let id = r_int r in
  let client = r_int r in
  let ntxns = r_int r in
  if ntxns < 0 || ntxns > 1_000_000 then raise (Bad "bad txn count");
  let digest = r_string r in
  let signature = r_string r in
  fun () ->
    let txns = r_txns r ~ntxns ~digest in
    {
      sr_instance;
      sr_speculative;
      sr_cert;
      sr_batch =
        {
          Batch.id;
          client;
          txns;
          digest;
          signature;
          wire = Batch.wire_size ~ntxns;
          keys = None;
        };
    }

(* Parse the record whose [len]-byte body starts at [off] in [s] and
   whose frame starts at [pos]: read the envelope, authenticate it
   against the frame checksum, then finish the record from the tail
   (round records: each txn run against its batch digest). Raises [Bad]
   on any mismatch. *)
let parse_record s ~pos ~prefix ~off ~len =
  let r = { buf = s; pos = off; limit = off + len } in
  let finish =
    match prefix.[String.length record_magic] with
    | 'R' ->
        let rr_round = r_int r in
        let rr_primaries = r_int_list r in
        let nslots = r_int r in
        if nslots < 0 || nslots > 10_000 then raise (Bad "bad slot count");
        let slots = List.init nslots (fun _ -> r_slot r) in
        fun () ->
          Round { rr_round; rr_primaries; rr_slots = List.map (fun k -> k ()) slots }
    | 'A' ->
        let floor = r_int r in
        fun () -> Attest floor
    | 'B' ->
        let frontier = r_int r in
        fun () -> Rollback frontier
    | 'V' ->
        let primaries = r_int_list r in
        fun () -> View primaries
    | _ -> raise (Bad "unknown record type")
  in
  if not (checksum_ok s ~pos ~prefix ~covered:(r.pos - off)) then
    raise (Bad "checksum mismatch");
  let record = finish () in
  if r.pos <> r.limit then raise (Bad "trailing bytes");
  record

(* Scan the journal area, returning the longest valid record prefix and
   the bytes dropped past the first torn / corrupt / malformed record.
   A checksum or digest mismatch anywhere stops the scan — a lying disk
   gets its suffix truncated, never trusted. *)
let scan journal =
  let total = String.length journal in
  let magic_len = String.length record_magic in
  let records = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos + header_len (record_prefix 'R') <= total do
    let p = !pos in
    let prefix = record_prefix journal.[p + magic_len] in
    match frame_body journal ~pos:p ~prefix with
    | None -> ok := false
    | Some (_, len) when len > max_body -> ok := false
    | Some (off, len) -> (
        match parse_record journal ~pos:p ~prefix ~off ~len with
        | record ->
            records := record :: !records;
            pos := off + len
        | exception Bad _ -> ok := false)
  done;
  (* Trailing bytes shorter than a header are a torn tail, too. *)
  (List.rev !records, total - !pos)

(* --- recovery ----------------------------------------------------------- *)

type recovery = {
  r_frontier : int;
  r_snapshot_seq : int;
  r_replayed_rounds : int;
  r_replayed_txns : int;
  r_dropped_bytes : int;
  r_replied : (int * string * int * string) list;
}

(* Pick the newest snapshot slot whose framing checksum, decode and chain
   verification all pass; a corrupted slot falls through to the older
   one. *)
let load_snapshot disk ~primaries =
  let unwrap blob =
    match frame_body blob ~pos:0 ~prefix:snap_magic with
    | Some (off, len)
      when off + len = String.length blob
           && checksum_ok blob ~pos:0 ~prefix:snap_magic ~covered:len -> (
        match Rcc_storage.Snapshot.decode (String.sub blob off len) with
        | Ok snap -> (
            match Rcc_storage.Snapshot.verify ~primaries snap with
            | Ok _ -> Some snap
            | Error _ -> None)
        | Error _ -> None)
    | _ -> None
  in
  List.fold_left
    (fun acc (_, blob) -> match acc with Some _ -> acc | None -> unwrap blob)
    None
    (Sim_disk.snapshots disk)

let recover ~engine ~self ~disk ~ledger ~store ~txn_table ~primaries
    ~materialize () =
  let replied : (int * string, int * string * int) Hashtbl.t =
    Hashtbl.create 256
  in
  (* 1. Newest verifiable snapshot, installed wholesale. *)
  let base =
    match load_snapshot disk ~primaries with
    | None -> 0
    | Some snap ->
        Rcc_storage.Ledger.install ledger snap.Rcc_storage.Snapshot.blocks;
        (match snap.Rcc_storage.Snapshot.kv with
        | Some entries when materialize ->
            Rcc_storage.Kv_store.install store entries
        | _ -> ());
        List.iter
          (fun (client, digest, round, result) ->
            Hashtbl.replace replied (client, digest) (round, result, 0))
          snap.Rcc_storage.Snapshot.replied;
        snap.Rcc_storage.Snapshot.seq
  in
  if Engine.tracing engine then
    Engine.trace engine ~replica:self ~instance:(-1)
      (Rcc_trace.Event.Journal_replay_begin { seq = base });
  (* 2. Longest valid journal prefix; a fault truncates from there on. *)
  let records, dropped = scan (Sim_disk.journal disk) in
  (* 3. Final stable floor across the prefix: speculative rounds at or
     above it are unproven (their rollback may be in the lost suffix), so
     replay stops there and leaves the rest to state transfer. *)
  let attest_floor =
    List.fold_left
      (fun floor r -> match r with Attest f when f > floor -> f | _ -> floor)
      base records
  in
  let replayed_rounds = ref 0 in
  let replayed_txns = ref 0 in
  let replay_round (rr : round_rec) =
    let round = rr.rr_round in
    if materialize then Rcc_storage.Kv_store.journal_round store round;
    let proofs = ref [] in
    let clients = ref [] in
    List.iter
      (fun (s : slot_rec) ->
        let batch = s.sr_batch in
        let ntxns = Array.length batch.Batch.txns in
        let key = (batch.Batch.client, batch.Batch.digest) in
        let dup = (not (Batch.is_null batch)) && Hashtbl.mem replied key in
        proofs :=
          {
            Rcc_storage.Block.instance = s.sr_instance;
            batch_digest = batch.Batch.digest;
            certificate_digest =
              Rcc_replica.Exec.certificate_digest batch.Batch.digest s.sr_cert;
          }
          :: !proofs;
        if not (Batch.is_null batch) then
          clients := batch.Batch.client :: !clients;
        if not dup then begin
          if materialize then
            Array.iter
              (fun txn -> ignore (Rcc_workload.Txn.apply store txn))
              batch.Batch.txns;
          let result_digest =
            Rcc_crypto.Sha256.digest_list
              [ batch.Batch.digest; Bytes_util.u64_string (Int64.of_int round) ]
          in
          replayed_txns := !replayed_txns + ntxns;
          Rcc_storage.Txn_table.record txn_table
            {
              Rcc_storage.Txn_table.round;
              instance = s.sr_instance;
              client = batch.Batch.client;
              batch_digest = batch.Batch.digest;
              response_digest = result_digest;
              txn_count = ntxns;
            };
          if not (Batch.is_null batch) then
            Hashtbl.replace replied key (round, result_digest, s.sr_instance)
        end)
      rr.rr_slots;
    let block =
      {
        Rcc_storage.Block.round;
        prev_hash = Rcc_storage.Ledger.head_hash ledger;
        proofs = List.rev !proofs;
        primaries = rr.rr_primaries;
        clients = List.rev !clients;
      }
    in
    Rcc_storage.Ledger.append_exn ledger block;
    incr replayed_rounds;
    if Engine.tracing engine then
      Engine.trace engine ~replica:self ~instance:(-1)
        (Rcc_trace.Event.Journal_replay_round
           {
             round;
             txns =
               List.fold_left
                 (fun acc (s : slot_rec) ->
                   acc + Array.length s.sr_batch.Batch.txns)
                 0 rr.rr_slots;
           })
  in
  let apply_rollback frontier =
    (* Clamp to the snapshot base: rounds the snapshot bakes in have no
       undo records and can never be unwound here. *)
    let frontier = max frontier base in
    if frontier < Rcc_storage.Ledger.next_round ledger then begin
      if materialize then Rcc_storage.Kv_store.undo_above store ~round:frontier;
      Rcc_storage.Ledger.truncate_to ledger ~round:frontier;
      ignore (Rcc_storage.Txn_table.remove_from txn_table ~round:frontier);
      let dead =
        Hashtbl.fold
          (fun key (round, _, _) acc ->
            if round >= frontier then key :: acc else acc)
          replied []
      in
      List.iter (Hashtbl.remove replied) dead
    end
  in
  (* 4. Replay, in journal order. A round gap (lost record) or an
     unproven speculative round stops the replay — the suffix past it is
     state transfer's job. *)
  let stopped = ref false in
  List.iter
    (fun record ->
      if not !stopped then
        match record with
        | Round rr ->
            let next = Rcc_storage.Ledger.next_round ledger in
            if rr.rr_round < next then ()  (* covered by the snapshot *)
            else if rr.rr_round > next then stopped := true
            else if
              rr.rr_round >= attest_floor
              && List.exists (fun s -> s.sr_speculative) rr.rr_slots
            then stopped := true
            else replay_round rr
        | Rollback frontier -> apply_rollback frontier
        | Attest floor ->
            if floor > base && materialize then
              Rcc_storage.Kv_store.forget_below store ~round:floor
        | View _ -> ())
    records;
  if dropped > 0 && Engine.tracing engine then
    Engine.trace engine ~replica:self ~instance:(-1)
      (Rcc_trace.Event.Journal_truncated
         { durable = Rcc_storage.Ledger.next_round ledger; dropped });
  let frontier = Rcc_storage.Ledger.next_round ledger in
  if Engine.tracing engine then
    Engine.trace engine ~replica:self ~instance:(-1)
      (Rcc_trace.Event.Journal_replay_complete
         { frontier; rounds = !replayed_rounds; txns = !replayed_txns });
  {
    r_frontier = frontier;
    r_snapshot_seq = base;
    r_replayed_rounds = !replayed_rounds;
    r_replayed_txns = !replayed_txns;
    r_dropped_bytes = dropped;
    r_replied =
      Hashtbl.fold
        (fun (client, digest) (round, result, _) acc ->
          (client, digest, round, result) :: acc)
        replied [];
  }
