(* Per-layer wall unit costs: the public functions of each layer timed
   outside-in on inputs drawn from the workload's own YCSB generator and
   seed. Multiplied by the traced run's call counts they estimate each
   layer's share of wall_s. *)

module Engine = Rcc_sim.Engine
module Net = Rcc_sim.Net
module Config = Rcc_runtime.Config
module Heap = Rcc_common.Binary_heap
module Rng = Rcc_common.Rng
module Msg = Rcc_messages.Msg
module Batch = Rcc_messages.Batch
module Codec = Rcc_messages.Codec
module Txn = Rcc_workload.Txn
module Ycsb = Rcc_workload.Ycsb
module Cluster = Rcc_runtime.Cluster

(* ns/op and minor words/op over [iters] calls of [f], in process CPU
   time after a full major GC: the same method as bench/perf.ml, which is
   an executable and so cannot be linked here. *)
let measure ~iters f =
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  let wall = Sys.time () -. t0 in
  let n = float_of_int iters in
  (wall *. 1e9 /. n, (Gc.minor_words () -. words0) /. n)

type t = {
  heap_ns : float;  (** one push + one pop *)
  net_send_ns : float;  (** one send, including its delivery event *)
  sha256_ns_per_kb : float;
  hmac_ns : float;
  cmac_ns : float;
  codec_ns : float;
  codec_words : float;
  batch_create_ns : float;
      (** Batch.create: digest + client signature, once per issued batch *)
  batch_verify_ns : float;
      (** Batch.verify: digest + signature check, once per request sent *)
  kv_apply_ns : float;  (** one YCSB transaction against the store *)
  journal_round_ns : float;  (** one committed round appended + flushed *)
}

let batches (cfg : Config.t) count =
  let gen =
    Ycsb.create ~records:cfg.Config.records ~write_ratio:cfg.Config.write_ratio
      ~theta:cfg.Config.theta ~seed:cfg.Config.seed ()
  in
  let secret, _ = Rcc_crypto.Signature.keygen (Rng.create cfg.Config.seed) in
  Array.init count (fun id ->
      Batch.create ~id ~client:id
        ~txns:(Ycsb.batch gen ~size:cfg.Config.batch_size)
        ~secret)

(* Batch.create and Batch.verify apart, each cycling 64 distinct txn
   arrays so Batch's one-entry digest memo never hits and every call pays
   its SHA-256 digest. In a deployment the primary's verify hits the memo
   when no other batch was hashed since the client's create, so
   [batch_verify_ns] is an upper bound there. *)
let batch_create_verify (cfg : Config.t) bs =
  let secret, public =
    Rcc_crypto.Signature.keygen (Rng.create cfg.Config.seed)
  in
  let i = ref 0 in
  let next () =
    i := (!i + 1) land 63;
    !i
  in
  let create_ns, _ =
    measure ~iters:4000 (fun () ->
        let k = next () in
        ignore (Batch.create ~id:k ~client:k ~txns:bs.(k).Batch.txns ~secret))
  in
  let verify_ns, _ =
    measure ~iters:4000 (fun () ->
        if not (Batch.verify bs.(next ()) ~public) then failwith "batch verify")
  in
  (create_ns, verify_ns)

let heap (cfg : Config.t) =
  let n = 1024 in
  let h = Heap.create ~capacity:(2 * n) ~dummy:0 () in
  let rng = Rng.create cfg.Config.seed in
  let prios = Array.init n (fun _ -> Rng.int rng 0xffff) in
  let ns, _ =
    measure ~iters:400 (fun () ->
        for i = 0 to n - 1 do
          Heap.push h ~priority:prios.(i) i
        done;
        while not (Heap.is_empty h) do
          ignore (Heap.pop_min_exn h)
        done)
  in
  ns /. float_of_int n

let net_send (cfg : Config.t) =
  let n = cfg.Config.n in
  let engine = Engine.create () in
  let net =
    Net.create engine ~nodes:n ~latency:cfg.Config.latency
      ~jitter:cfg.Config.jitter ~gbps:cfg.Config.gbps
      ~rng:(Rng.create cfg.Config.seed) ()
  in
  for i = 0 to n - 1 do
    Net.register net i (fun ~src:_ ~size:_ _ -> ())
  done;
  let batch = (batches cfg 1).(0) in
  let size = Msg.size (Msg.Pre_prepare { instance = 0; view = 0; seq = 1; batch }) in
  let ns, _ =
    measure ~iters:4000 (fun () ->
        for dst = 1 to n - 1 do
          Net.send net ~src:0 ~dst ~size ()
        done;
        Engine.run engine ~until:(Engine.now engine + Engine.ms 10))
  in
  ns /. float_of_int (n - 1)

(* One op = a committed round of z acceptances appended to a journal on
   a fresh Sim_disk, then the engine stepped past its group-commit
   flush. *)
let journal_round (cfg : Config.t) bs =
  let engine = Engine.create () in
  let disk = Rcc_journal.Sim_disk.create ~seed:cfg.Config.seed in
  let j =
    Rcc_journal.Journal.attach ~engine ~costs:Rcc_sim.Costs.default ~disk
      ~self:0 ()
  in
  let primaries = List.init cfg.Config.z (fun x -> x) in
  let cert = List.init (cfg.Config.n - cfg.Config.f) (fun r -> r) in
  let round = ref 0 in
  let ns, _ =
    measure ~iters:400 (fun () ->
        let accs =
          Array.init cfg.Config.z (fun instance ->
              {
                Rcc_replica.Acceptance.instance;
                round = !round;
                batch = bs.(((!round * cfg.Config.z) + instance) land 63);
                cert;
                speculative = false;
                history = "";
              })
        in
        Rcc_journal.Journal.log_round j ~round:!round ~primaries accs;
        incr round;
        Engine.run engine ~until:(Engine.now engine + Engine.ms 10))
  in
  ns

let run (cfg : Config.t) =
  let bs = batches cfg 64 in
  let msgs =
    Array.mapi
      (fun seq batch -> Msg.Pre_prepare { instance = 0; view = 0; seq; batch })
      bs
  in
  let wires =
    Array.map
      (fun b ->
        let buf = Bytes.create (Array.length b.Batch.txns * Txn.encoded_size) in
        Array.iteri
          (fun i tx -> Txn.encode_into buf (i * Txn.encoded_size) tx)
          b.Batch.txns;
        Bytes.to_string buf)
      bs
  in
  let i = ref 0 in
  let next a =
    i := (!i + 1) land 63;
    a.(!i)
  in
  let kb = float_of_int (String.length wires.(0)) /. 1024.0 in
  let sha_ns, _ =
    measure ~iters:20_000 (fun () -> ignore (Rcc_crypto.Sha256.digest (next wires)))
  in
  let digests = Array.map (fun b -> b.Batch.digest) bs in
  let hkey = String.make 32 'k' in
  let hmac_ns, _ =
    measure ~iters:100_000 (fun () ->
        ignore (Rcc_crypto.Hmac.mac ~key:hkey (next digests)))
  in
  let ckey = Rcc_crypto.Cmac.of_aes_key (String.make 16 'c') in
  let cmac_ns, _ =
    measure ~iters:100_000 (fun () ->
        ignore (Rcc_crypto.Cmac.mac ckey (next digests)))
  in
  let codec_ns, codec_words =
    measure ~iters:4000 (fun () ->
        match Codec.decode (Codec.encode (next msgs)) with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  let store = Rcc_storage.Kv_store.create () in
  Rcc_storage.Kv_store.init_records store ~count:cfg.Config.records;
  let txns = Array.concat (Array.to_list (Array.map (fun b -> b.Batch.txns) bs)) in
  let ntx = Array.length txns in
  let kv_ns, _ =
    measure ~iters:20 (fun () ->
        Array.iter (fun tx -> ignore (Txn.apply store tx)) txns)
  in
  let batch_create_ns, batch_verify_ns = batch_create_verify cfg bs in
  {
    heap_ns = heap cfg;
    net_send_ns = net_send cfg;
    sha256_ns_per_kb = sha_ns /. kb;
    hmac_ns;
    cmac_ns;
    codec_ns;
    codec_words;
    batch_create_ns;
    batch_verify_ns;
    kv_apply_ns = kv_ns /. float_of_int ntx;
    journal_round_ns = journal_round cfg bs;
  }

(* The client pool at the workload's scale, seen through Cluster.build:
   a build at the workload's client count minus one at [base_clients]
   (the same replicas, one client machine) leaves the client-scaled part
   of setup_s: the Client_pool, its machines' network nodes and the
   keychain's client share. CPU seconds are the median of three builds
   each; live words are read after a compaction, with the cluster still
   referenced. *)
let base_clients = 20

let client_pool (cfg : Config.t) =
  let build clients =
    let cfg = { cfg with Config.clients } in
    Gc.compact ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let t0 = Sys.time () in
    let cluster = Cluster.build cfg in
    let dt = Sys.time () -. t0 in
    Gc.compact ();
    let live = (Gc.stat ()).Gc.live_words - live0 in
    ignore (Sys.opaque_identity cluster);
    (dt, live)
  in
  let sample clients =
    let runs = List.init 3 (fun _ -> build clients) in
    (Util.median (List.map fst runs), snd (List.hd runs))
  in
  let clients = Config.total_clients cfg in
  let base_s, base_words = sample base_clients in
  let s, words = sample clients in
  let extra = float_of_int (max 1 (clients - base_clients)) in
  (s -. base_s, float_of_int (words - base_words) /. extra)
