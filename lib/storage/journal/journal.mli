(** Durable write-ahead journal with restart-from-disk recovery.

    Each replica (when `--journal` is on) appends every committed round —
    the acceptances in deterministic replay order, including batch bytes
    and certificates — plus rollback, stable-checkpoint and view records
    to its {!Sim_disk}. Appends are buffered and group-committed: a flush
    is scheduled a short interval after the first buffered record (or
    forced by a byte threshold) and charges one modeled fsync plus
    per-byte sequential-write cost to a dedicated disk lane, off the
    execute path. Periodically the builder persists a full checkpoint
    {!Rcc_storage.Snapshot} into one of the disk's two alternating slots.

    Recovery ({!recover}) rebuilds a fresh replica's state from the disk
    alone: install the newest verifiable snapshot, then replay the
    journal suffix — re-executing rounds, re-applying rollbacks, stopping
    at the first torn/corrupt/missing record or at the first speculative
    round the stable floor does not cover. Whatever the disk cannot prove
    is left to state transfer.

    Record framing: each record is [magic "RJL1" | type byte | u64 body
    length | 8-byte checksum | body]. A round record's body is an
    envelope — round, primaries and, per slot, instance, speculative
    flag, certificate, batch id, client, txn count, digest and signature
    — followed by a txn tail holding every slot's 24-byte txn encodings
    in slot order. The checksum is the SHA-256 prefix of the envelope
    only; recovery then checks each non-empty txn run against the batch
    digest the authenticated envelope carries (a batch digest is the
    SHA-256 of exactly those encodings). Every stored byte is covered by
    SHA-256, and the payload by the full 32 bytes, while a write hashes
    only the small envelope. Other records (rollback, stable, view) are
    all envelope. Snapshot slots use the same frame with magic "RJS1"
    and no type byte around a {!Rcc_storage.Snapshot.encode} blob, the
    checksum covering the whole blob, because [Snapshot.verify] pins the
    chain but not the KV/reply bytes. *)

type t

val attach :
  engine:Rcc_sim.Engine.t ->
  costs:Rcc_sim.Costs.t ->
  disk:Sim_disk.t ->
  self:Rcc_common.Ids.replica_id ->
  unit ->
  t
(** Attach a journal writer for one incarnation over a persistent disk.
    Creates the disk-lane CPU server; buffered state dies with the
    incarnation ({!halt}), the disk does not. *)

val log_round :
  t ->
  round:Rcc_common.Ids.round ->
  primaries:Rcc_common.Ids.replica_id list ->
  Rcc_replica.Acceptance.t array ->
  unit
(** Append one committed round (acceptances in replay order). Also emits
    a view record whenever [primaries] changed since the last round. *)

val log_rollback : t -> frontier:Rcc_common.Ids.round -> unit
val log_stable : t -> floor:Rcc_common.Ids.round -> unit

val write_snapshot : t -> seq:Rcc_common.Ids.round -> Rcc_storage.Snapshot.t -> unit
(** Persist a checkpoint covering rounds [< seq] into a snapshot slot
    (charged to the disk lane like a flush). *)

val halt : t -> unit
(** Crash semantics: un-flushed buffered records are lost, scheduled
    flushes become no-ops. The underlying disk keeps what it has. *)

val disk : t -> Sim_disk.t
(** The persistent disk this incarnation writes to. *)

(** {2 Counters (for Report)} *)

val appends : t -> int
val flushes : t -> int
val bytes_flushed : t -> int
val snapshots_written : t -> int

val durable_round : t -> Rcc_common.Ids.round
(** Highest round covered by a completed flush — what the disk proves,
    assuming it didn't lie (recovery re-derives the truth). *)

(** {2 Recovery} *)

type recovery = {
  r_frontier : Rcc_common.Ids.round;
      (** ledger next-round after replay: the durable frontier *)
  r_snapshot_seq : Rcc_common.Ids.round;  (** installed snapshot boundary; 0 = none *)
  r_replayed_rounds : int;
  r_replayed_txns : int;
  r_dropped_bytes : int;  (** journal bytes discarded at a torn/corrupt record *)
  r_replied :
    (Rcc_common.Ids.client_id * string * Rcc_common.Ids.round * string) list;
      (** duplicate-reply cache rebuilt from snapshot + replay *)
}

val recover :
  engine:Rcc_sim.Engine.t ->
  self:Rcc_common.Ids.replica_id ->
  disk:Sim_disk.t ->
  ledger:Rcc_storage.Ledger.t ->
  store:Rcc_storage.Kv_store.t ->
  txn_table:Rcc_storage.Txn_table.t ->
  primaries:Rcc_common.Ids.replica_id list ->
  materialize:bool ->
  unit ->
  recovery
(** Rebuild [ledger]/[store]/[txn_table] (assumed fresh) from the disk:
    newest verifiable snapshot first, then the journal suffix. Every
    replayed round re-runs through the same KV-apply / block-build path
    as live execution, so a clean disk reproduces the pre-crash state
    byte-for-byte up to the durable frontier. Faulty records truncate
    the replay — never install corrupt state. *)
