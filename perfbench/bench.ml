(* The benchmark binary.  perfbench/run.py builds it and runs it
   from a per-run work directory; see perfbench/README.md for the workloads,
   the metrics and the steadiness rules.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
       --serve-exe PATH --artifacts DIR [--spans FILE] [--setup-only]

   --setup-only times the set-ups alone (setup_s); --trace 0 times whole
   units of work (a fit, an MC evaluation, a served round) and prints the
   other end-to-end metrics; --trace 1 re-executes the same
   units as a sequence of calls into the layers, wraps every call in a span
   and writes the spans to --spans for perfbench/layers.py.  Either way the
   last line of stdout is one JSON object. *)

module A = Autodiff
module N = Pnn.Network
module P = Serving.Protocol
module SM = Serving.Serve_model

(* {1 Workloads} *)

type workload = {
  name : string;
  dataset : string;
  epochs : int;  (** epochs per fit unit; patience is longer than the unit *)
  traced_epochs : int;  (** re-enacted epochs per traced cycle *)
  predict_rounds : int;  (** per cycle *)
  mixed_rounds : int;  (** per cycle *)
  mc_singles : int;  (** per cycle *)
}

(* Each workload is one dataset: a median over units of two input sizes
   would be a median of a two-humped distribution. *)
let workloads =
  [
    {
      name = "small_iris";
      dataset = "iris";
      epochs = 100;
      traced_epochs = 20;
      predict_rounds = 100;
      mixed_rounds = 10;
      mc_singles = 10;
    };
    {
      name = "wide_pendigits";
      dataset = "pendigits";
      epochs = 20;
      traced_epochs = 10;
      predict_rounds = 200;
      mixed_rounds = 20;
      mc_singles = 20;
    };
  ]

(* The paper's protocol: learnable omega, epsilon = 10 %, N_train = 20,
   N_test = 100 at epsilon in {5 %, 10 %}. *)
let train_epsilon = 0.1
let test_epsilons = [ 0.05; 0.10 ]
let n_test_draws = 100
let checked_draws_per_eval = 2

(* The server's defaults: the benchmark deploys it as a user would. *)
let batch = Serving.Server.default_config.Serving.Server.max_batch
let mc_model = Serving.Server.default_config.Serving.Server.mc_model
let mc_per_mixed = 4
let mc_draws = 32

(* bin/serve.exe loads this surrogate artifact by default; the in-process
   side loads the same file. *)
let surrogate_n = 2000
let surrogate_epochs = 1500
let setup_reps = 15
let model_file = "model.pnn"
let sock_file = "serve.sock"

(* {1 Clock, samples, accounting} *)

let now () = Monotonic_clock.now ()
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let median_of a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  let n = Array.length b in
  if n = 0 then nan
  else if n mod 2 = 1 then b.(n / 2)
  else 0.5 *. (b.((n / 2) - 1) +. b.(n / 2))

(* Nearest-rank percentile. *)
let percentile a p =
  let b = Array.copy a in
  Array.sort Float.compare b;
  let n = Array.length b in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  b.(max 0 (min (n - 1) k))

type samples = { mutable xs : float list }

let samples () = { xs = [] }
let push s x = s.xs <- x :: s.xs
let values s = Array.of_list (List.rev s.xs)
let median s = median_of (values s)

let attempted = ref 0
let failed = ref 0

let op ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "FAIL %s\n%!" what
  end

let log fmt = Printf.printf (fmt ^^ "\n%!")

(* The highest of a few percentiles that has at least ten samples beyond
   it, with the sample count: tails go to the log, never to a gated metric. *)
let log_tail name scale unit s =
  let a = values s in
  let n = Array.length a in
  if n > 0 then begin
    let tail =
      List.fold_left
        (fun acc p -> if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then Some p else acc)
        None [ 90.0; 99.0; 99.9 ]
    in
    let tail_s =
      match tail with
      | Some p -> Printf.sprintf ", p%g %.4f %s" p (scale *. percentile a p) unit
      | None -> ""
    in
    log "tail %s: n=%d p50 %.4f %s%s, min %.4f max %.4f" name n
      (scale *. median_of a) unit tail_s
      (scale *. Array.fold_left Float.min infinity a)
      (scale *. Array.fold_left Float.max neg_infinity a)
  end

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  match
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
            match String.split_on_char ' ' (String.trim v) with
            | kb :: _ -> Some (float_of_string kb /. 1024.0)
            | [] -> None)
        | _ -> None)
      lines
  with
  | Some mb -> mb
  | None -> failwith ("no VmHWM in " ^ path)

(* {1 Spans (traced runs only)}

   Kept in memory and written out at the end.  [words] is the minor-heap
   allocation of the call, for the spans that ask for it; -1 otherwise. *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : int64;
  t1 : int64;
  words : int;
}

let spans : span list ref = ref []
let next_span = ref 1

(* [key=value] facts the printer needs besides the spans. *)
let meta : (string * string) list ref = ref []
let add_meta k v = if not (List.mem_assoc k !meta) then meta := (k, v) :: !meta

let span ?(words = false) ~parent name f =
  let id = !next_span in
  incr next_span;
  let w0 = if words then Gc.minor_words () else 0.0 in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  let w = if words then int_of_float (Gc.minor_words () -. w0) else -1 in
  spans := { id; parent; name; t0; t1; words = w } :: !spans;
  r

let write_spans file ~workload ~seed =
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "# workload=%s\n# seed=%d\n# backend=%s\n" workload seed
        (Tensor.backend_name (Tensor.backend ()));
      List.iter (fun (k, v) -> Printf.fprintf oc "# %s=%s\n" k v) (List.rev !meta);
      Printf.fprintf oc "id\tparent\tname\tstart_ns\tend_ns\twords\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%Ld\t%Ld\t%d\n" s.id s.parent s.name s.t0
            s.t1 s.words)
        (List.rev !spans))

(* {1 Set-up: surrogate, dataset, split, network, compiled tapes} *)

type env = {
  wl : workload;
  seed : int;
  surrogate : Surrogate.Model.t;
  split : Datasets.Synth.split;
  n_classes : int;
  data : Pnn.Training.data;
  config : Pnn.Config.t;
  shapes : (int * int) list;
  pool : Parallel.Pool.t;
}

(* Every generator the run uses derives from --seed; the split uses
   [1000 * seed + 1]. *)
let init_seed env = (1000 * env.seed) + 2
let fit_seed env = (1000 * env.seed) + 3
let eval_seed env i = (1000 * env.seed) + 10 + i

let build_env wl ~seed ~artifacts ~pool =
  let surrogate =
    Surrogate.Pipeline.ensure ~dir:artifacts ~n:surrogate_n ~max_epochs:surrogate_epochs
      ~seed:42 ()
  in
  let ds = Datasets.Bench13.load wl.dataset in
  let split = Datasets.Synth.split (Rng.create ((1000 * seed) + 1)) ds in
  let n_classes = ds.Datasets.Synth.spec.Datasets.Synth.classes in
  (* The paper's N_train = N_val = 20 with the committed runs' learning
     rate (the paper's 0.1 leaves iris at chance for most of a unit). *)
  let config =
    {
      (Pnn.Config.paper ()) with
      Pnn.Config.lr_theta = Pnn.Config.default.Pnn.Config.lr_theta;
      epsilon = train_epsilon;
      max_epochs = wl.epochs;
      patience = wl.epochs + 1;
    }
  in
  let inputs = ds.Datasets.Synth.spec.Datasets.Synth.features in
  let shapes =
    N.theta_shapes (N.create (Rng.create 0) config surrogate ~inputs ~outputs:n_classes)
  in
  {
    wl;
    seed;
    surrogate;
    split;
    n_classes;
    data = Pnn.Training.of_split ~n_classes split;
    config;
    shapes;
    pool;
  }

let inputs env = Tensor.cols env.split.Datasets.Synth.x_train

let fresh_network env =
  N.create (Rng.create (init_seed env)) env.config env.surrogate ~inputs:(inputs env)
    ~outputs:env.n_classes

let nominal env = Pnn.Noise.none ~theta_shapes:env.shapes

(* Compile the training and evaluation replicas the timed units reuse. *)
let compile_tapes env net =
  ignore
    (N.draw_loss_and_grads net ~noise:(nominal env) ~x:env.data.Pnn.Training.x_train
       ~labels:env.data.Pnn.Training.y_train);
  ignore (N.predict_cached net ~noise:(nominal env) env.split.Datasets.Synth.x_test)

(* {1 The server process and its client side} *)

type conn = { fd : Unix.file_descr; rd : P.reader; chunk : Bytes.t }

type expect =
  | E_class of int
  | E_mc of SM.mc_summary
  | E_stats of { served : int; mc_served : int }
  | E_ack

type server = {
  pid : int;
  conn : conn;
  pending : (int32, expect) Hashtbl.t;
  mutable next_id : int32;
  mutable sent_predict : int;
  mutable sent_mc : int;
}

let live_pids : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

let spawn serve_exe =
  let log_fd = Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let env =
    Array.append [| "REPRO_JOBS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"REPRO_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env serve_exe
      [| serve_exe; "run"; "--model"; model_file; "--socket"; sock_file |]
      env Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  live_pids := pid :: !live_pids;
  pid

let connect_when_ready pid =
  let deadline = Int64.add (now ()) 60_000_000_000L in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "server exited during start-up (see serve.log)");
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock_file) with
    | () ->
        (* A lost answer must end the run, not hang it. *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
        { fd; rd = P.reader (); chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Int64.compare (now ()) deadline > 0 then failwith "server did not start";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let write_all fd b =
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd b !sent (len - !sent)
  done

let rec recv c =
  match P.next_frame c.rd with
  | Error msg -> failwith ("framing error from server: " ^ msg)
  | Ok (Some payload) -> P.decode_response payload
  | Ok None -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> failwith "server closed the connection"
      | n ->
          P.feed c.rd c.chunk ~pos:0 ~len:n;
          recv c
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv c)

let fresh_id srv e =
  let id = srv.next_id in
  srv.next_id <- Int32.succ id;
  Hashtbl.replace srv.pending id e;
  id

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every request id is answered exactly once, with the expected answer. *)
let check_response srv resp =
  match resp with
  | Error msg -> op false ("undecodable response: " ^ msg)
  | Ok r -> (
      let id = P.response_id r in
      match Hashtbl.find_opt srv.pending id with
      | None -> op false (Printf.sprintf "response to unknown or answered id %ld" id)
      | Some e ->
          Hashtbl.remove srv.pending id;
          let ok =
            match (e, r) with
            | E_class c, P.Class { cls; _ } -> cls = c
            | E_mc m, P.Mc_class { cls; mean_p; q05; q95; _ } ->
                cls = m.SM.cls && same_float mean_p m.SM.mean_p && same_float q05 m.SM.q05
                && same_float q95 m.SM.q95 && 0.0 <= q05 && q05 <= q95 && q95 <= 1.0
            | E_stats { served; mc_served }, P.Stats_reply { stats; _ } ->
                Int64.to_int stats.P.served = served
                && Int64.to_int stats.P.mc_served = mc_served
                && Int64.equal stats.P.errors 0L
            | E_ack, P.Shutdown_ack _ -> true
            | _ -> false
          in
          op ok (Printf.sprintf "request %ld answered wrongly" id))

(* The rows and MC requests the load generator cycles through, with their
   expected answers computed in-process from the same model file. *)
type traffic = {
  rows : float array array;
  classes : int array;
  mc : (float array * int32 * SM.mc_summary) array;
  mutable cursor : int;
  mutable mc_cursor : int;
}

let make_traffic env model =
  let x = env.split.Datasets.Synth.x_test in
  let net = SM.network model in
  let rows = Array.init (Tensor.rows x) (fun i -> Tensor.to_array (Tensor.row x i)) in
  let none = Pnn.Noise.none ~theta_shapes:(N.theta_shapes net) in
  let classes =
    Array.map (fun r -> (N.predict net ~noise:none (Tensor.of_arrays [| r |])).(0)) rows
  in
  let distinct = List.length (List.sort_uniq compare (Array.to_list classes)) in
  if not (List.mem_assoc "served_classes" !meta) then
    log "served model: %d distinct classes over %d test rows" distinct (Array.length rows);
  add_meta "served_classes" (string_of_int distinct);
  let rng = Rng.create ((1000 * env.seed) + 7) in
  let mc =
    Array.init 8 (fun i ->
        let row = rows.((i * 7) mod Array.length rows) in
        let seed = Int32.of_int (Rng.int rng 0x3fffffff) in
        (* the server masks the wire seed before it reaches Rng.create *)
        let expect =
          SM.predict_mc model ~pool:env.pool ~model:mc_model ~draws:mc_draws
            ~seed:(Int32.to_int seed land 0x3fffffff)
            row
        in
        (row, seed, expect))
  in
  { rows; classes; mc; cursor = 0; mc_cursor = 0 }

let add_predict srv tr buf =
  let i = tr.cursor in
  tr.cursor <- (i + 1) mod Array.length tr.rows;
  let id = fresh_id srv (E_class tr.classes.(i)) in
  srv.sent_predict <- srv.sent_predict + 1;
  Buffer.add_bytes buf (P.encode_request (P.Predict { id; features = tr.rows.(i) }))

let add_mc srv tr buf =
  let row, seed, expect = tr.mc.(tr.mc_cursor) in
  tr.mc_cursor <- (tr.mc_cursor + 1) mod Array.length tr.mc;
  let id = fresh_id srv (E_mc expect) in
  srv.sent_mc <- srv.sent_mc + 1;
  Buffer.add_bytes buf
    (P.encode_request (P.Predict_mc { id; features = row; draws = mc_draws; seed }))

(* Send one write, read [n] answers; returns the clock around the two. *)
let round_t srv frames n =
  let bytes = Buffer.to_bytes frames in
  let answers = Array.make n (Error "missing") in
  let t0 = now () in
  write_all srv.conn.fd bytes;
  for i = 0 to n - 1 do
    answers.(i) <- recv srv.conn
  done;
  let t1 = now () in
  Array.iter (check_response srv) answers;
  (t0, t1)

let round srv frames n =
  let t0, t1 = round_t srv frames n in
  secs t0 t1

let predict_round srv tr =
  let buf = Buffer.create 16384 in
  for _ = 1 to batch do
    add_predict srv tr buf
  done;
  round srv buf batch

(* 64 predicts with 4 MC requests interleaved: the predict batch always
   fills, so the linger never sets the round's time. *)
let mixed_round srv tr =
  let buf = Buffer.create 16384 in
  let every = batch / mc_per_mixed in
  for i = 0 to batch - 1 do
    add_predict srv tr buf;
    if i mod every = every - 1 then add_mc srv tr buf
  done;
  round srv buf (batch + mc_per_mixed)

let mc_single srv tr =
  let buf = Buffer.create 512 in
  add_mc srv tr buf;
  round srv buf 1

let stats_request srv =
  let buf = Buffer.create 64 in
  let id =
    fresh_id srv (E_stats { served = srv.sent_predict; mc_served = srv.sent_mc })
  in
  Buffer.add_bytes buf (P.encode_request (P.Stats { id }));
  let bytes = Buffer.to_bytes buf in
  write_all srv.conn.fd bytes;
  let r = recv srv.conn in
  (match r with
  | Ok (P.Stats_reply { stats; _ }) ->
      check_response srv r;
      Some stats
  | _ ->
      check_response srv r;
      None)

(* Spawn the server on the saved model and wait for its first correct
   answer: the server's share of set-up time. *)
let start_server serve_exe tr =
  let pid = spawn serve_exe in
  let conn = connect_when_ready pid in
  let srv =
    { pid; conn; pending = Hashtbl.create 256; next_id = 1l; sent_predict = 0; sent_mc = 0 }
  in
  let buf = Buffer.create 512 in
  add_predict srv tr buf;
  ignore (round srv buf 1);
  srv

let shutdown srv =
  let id = fresh_id srv E_ack in
  write_all srv.conn.fd (P.encode_request (P.Shutdown { id }));
  check_response srv (recv srv.conn);
  Unix.close srv.conn.fd;
  ignore (Unix.waitpid [] srv.pid);
  live_pids := List.filter (fun p -> p <> srv.pid) !live_pids;
  op (Hashtbl.length srv.pending = 0)
    (Printf.sprintf "%d requests never answered" (Hashtbl.length srv.pending))

(* One set-up: in-process state and compiled tapes, then the saved model
   deployed on a fresh server.  The benchmark's own oracle work in between
   (loading the file back and computing the expected answers) is not timed. *)
let setup wl ~seed ~artifacts ~serve_exe ~pool =
  let t0 = now () in
  let env = build_env wl ~seed ~artifacts ~pool in
  let net = fresh_network env in
  compile_tapes env net;
  let t1 = now () in
  Pnn.Serialize.save_file net model_file;
  let model =
    SM.load ~expect_digest:(Pnn.Serialize.digest net) env.surrogate model_file
  in
  let tr = make_traffic env model in
  let t2 = now () in
  let srv = start_server serve_exe tr in
  let t3 = now () in
  (env, model, tr, srv, secs t0 t1 +. secs t2 t3)

(* {1 Output checks on training and evaluation} *)

let mean_of a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let close_to a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let check_fit env ~reference (r : Pnn.Training.result) =
  let h = r.Pnn.Training.history in
  let tl = h.Nn.Train.train_losses and vl = h.Nn.Train.val_losses in
  let finite = Array.for_all Float.is_finite tl && Array.for_all Float.is_finite vl in
  let n = Array.length tl in
  let k = max 1 (n / 10) in
  let decreasing =
    n = env.wl.epochs
    && mean_of (Array.sub tl (n - k) k) < mean_of (Array.sub tl 0 k)
  in
  let same a b = Array.length a = Array.length b && Array.for_all2 same_float a b in
  let repeatable =
    match reference with
    | None -> true
    | Some (h0 : Nn.Train.history) ->
        same h0.Nn.Train.train_losses tl && same h0.Nn.Train.val_losses vl
  in
  op
    (finite && decreasing && repeatable)
    (Printf.sprintf "fit: finite %b, loss decreasing %b, repeatable %b" finite
       decreasing repeatable)

(* Logged, not counted: a unit-length VA fit ends at or below the
   majority-class fraction on about one seed in five (iris, 200 epochs: 6
   of 30 seeds), so it cannot be a per-run pass/fail property. *)
let log_accuracy env (r : Pnn.Training.result) =
  let y = env.split.Datasets.Synth.y_test in
  let counts = Array.make env.n_classes 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) y;
  let majority =
    float_of_int (Array.fold_left max 0 counts) /. float_of_int (Array.length y)
  in
  let acc =
    Pnn.Evaluation.nominal_accuracy r.Pnn.Training.network
      ~x:env.split.Datasets.Synth.x_test ~y
  in
  log "fit: nominal test accuracy %.4f, majority-class fraction %.4f" acc majority

(* Each per-draw accuracy is a multiple of 1/n_test in [0, 1]; the summary
   equals a recomputation (population std, as Stats documents); a sample of
   draws recomputed through the uncached Network.predict on the documented
   Noise.draw stream gives the same correct counts. *)
let check_eval env net ~epsilon ~rng_seed ~cycle (res : Pnn.Evaluation.result) =
  let x = env.split.Datasets.Synth.x_test and y = env.split.Datasets.Synth.y_test in
  let n_test = float_of_int (Array.length y) in
  let accs = res.Pnn.Evaluation.accuracies in
  let lattice =
    Array.for_all
      (fun a ->
        let c = a *. n_test in
        a >= 0.0 && a <= 1.0 && Float.abs (c -. Float.round c) < 1e-9)
      accs
  in
  let m = mean_of accs in
  let sd =
    sqrt (Array.fold_left (fun s a -> s +. ((a -. m) *. (a -. m))) 0.0 accs
          /. float_of_int (Array.length accs))
  in
  op
    (Array.length accs = n_test_draws && lattice
    && close_to res.Pnn.Evaluation.mean_accuracy m
    && close_to res.Pnn.Evaluation.std_accuracy sd)
    (Printf.sprintf "mc eval eps %g: accuracies or summary wrong" epsilon);
  let rng = Rng.create rng_seed in
  let noises =
    Array.init n_test_draws (fun _ -> Pnn.Noise.draw rng ~epsilon ~theta_shapes:env.shapes)
  in
  for k = 0 to checked_draws_per_eval - 1 do
    let j = ((cycle * checked_draws_per_eval) + k) * 37 mod n_test_draws in
    let pred = N.predict net ~noise:noises.(j) x in
    let hits = ref 0 in
    Array.iteri (fun i p -> if p = y.(i) then incr hits) pred;
    op
      (Float.abs ((accs.(j) *. n_test) -. float_of_int !hits) < 1e-6)
      (Printf.sprintf "mc eval eps %g draw %d: %d hits recomputed" epsilon j !hits)
  done

(* {1 Untraced run: the end-to-end metrics} *)

(* [setup_s]: the median of [setup_reps] set-ups, each followed by a
   shutdown.  run.py runs this in a process of its own, so that the
   repeated set-ups (and the compiled graphs the program caches for each
   network they build) do not set the measuring process's peak RSS. *)
let run_setups wl ~seed ~artifacts ~serve_exe =
  let pool = Parallel.Pool.create ~jobs:1 () in
  let setup_times = samples () in
  for _ = 1 to setup_reps do
    let _, _, _, srv, t = setup wl ~seed ~artifacts ~serve_exe ~pool in
    push setup_times t;
    shutdown srv
  done;
  log_tail "setup_s" 1.0 "s" setup_times;
  [ ("setup_s", median setup_times, "s") ]

let run_untraced wl ~seed ~seconds ~artifacts ~serve_exe =
  let pool = Parallel.Pool.create ~jobs:1 () in
  let env, _, tr, srv, _ = setup wl ~seed ~artifacts ~serve_exe ~pool in
  let fit_t = samples () and eval_t = samples () in
  let predict_t = samples () and mixed_t = samples () and mc_t = samples () in
  let reference = ref None in
  let t_start = now () in
  let cycle = ref 0 in
  while !cycle < 2 || secs t_start (now ()) < seconds do
    let net = fresh_network env in
    let t0 = now () in
    let r = Pnn.Training.fit ~pool (Rng.create (fit_seed env)) net env.data in
    let t1 = now () in
    push fit_t (secs t0 t1);
    check_fit env ~reference:!reference r;
    (match !reference with
    | None ->
        reference := Some r.Pnn.Training.history;
        log_accuracy env r
    | Some _ -> ());
    List.iteri
      (fun i epsilon ->
        let rng_seed = eval_seed env i in
        let t0 = now () in
        let res =
          Pnn.Evaluation.mc_accuracy ~pool (Rng.create rng_seed) r.Pnn.Training.network
            ~epsilon ~n:n_test_draws ~x:env.split.Datasets.Synth.x_test
            ~y:env.split.Datasets.Synth.y_test
        in
        let t1 = now () in
        push eval_t (secs t0 t1);
        check_eval env r.Pnn.Training.network ~epsilon ~rng_seed ~cycle:!cycle res)
      test_epsilons;
    for _ = 1 to wl.predict_rounds do
      push predict_t (predict_round srv tr)
    done;
    for _ = 1 to wl.mixed_rounds do
      push mixed_t (mixed_round srv tr)
    done;
    for _ = 1 to wl.mc_singles do
      push mc_t (mc_single srv tr)
    done;
    incr cycle
  done;
  let measured = secs t_start (now ()) in
  ignore (stats_request srv);
  let serve_rss = vm_hwm_mb (string_of_int srv.pid) in
  shutdown srv;
  let self_rss = vm_hwm_mb "self" in
  log "run: %d cycles in %.2f s" !cycle measured;
  log_tail "fit unit" 1.0 "s" fit_t;
  log_tail "mc eval unit" 1e3 "ms" eval_t;
  log_tail "predict round" 1e3 "ms" predict_t;
  log_tail "mixed round" 1e3 "ms" mixed_t;
  log_tail "mc request" 1e3 "ms" mc_t;
  [
    ("peak_rss_mb", self_rss, "MB");
    ("serve_rss_mb", serve_rss, "MB");
    ("train_epochs_per_s", float_of_int wl.epochs /. median fit_t, "1/s");
    ("mc_eval_draws_per_s", float_of_int n_test_draws /. median eval_t, "1/s");
    ("serve_predict_rps", float_of_int batch /. median predict_t, "1/s");
    ("serve_mixed_rps", float_of_int (batch + mc_per_mixed) /. median mixed_t, "1/s");
    ("serve_mc_p50_ms", 1e3 *. median mc_t, "ms");
  ]

(* {1 Traced run: the same units as a sequence of layer calls} *)

(* One variation-aware epoch as [Training.fit] runs it: noise draws, one
   cached-replica draw per noise, the draw-order gradient reduction, Adam on
   both parameter groups, and the validation loss every [val_every]
   epochs.  Returns the epoch's training loss. *)
let traced_epoch env net ~rng ~val_noises ~optimizers ~epoch ~parent =
  span ~parent "pnn.epoch" (fun ep ->
      let noises =
        span ~parent:ep "pnn.noise_draws" (fun _ ->
            Pnn.Noise.draw_many rng ~epsilon:train_epsilon ~theta_shapes:env.shapes
              ~n:env.config.Pnn.Config.n_mc_train)
      in
      let per_draw =
        List.map
          (fun noise ->
            span ~words:true ~parent:ep "pnn.va_draw" (fun _ ->
                N.draw_loss_and_grads net ~noise ~x:env.data.Pnn.Training.x_train
                  ~labels:env.data.Pnn.Training.y_train))
          noises
      in
      let total = ref 0.0 and acc = ref [] in
      List.iteri
        (fun i (l, grads) ->
          total := !total +. l;
          if i = 0 then acc := grads
          else List.iter2 (fun a g -> Tensor.add_into a g ~dst:a) !acc grads)
        per_draw;
      let inv_n = 1.0 /. float_of_int (List.length per_draw) in
      List.iter (fun g -> Tensor.scale_into inv_n g ~dst:g) !acc;
      let loss =
        A.precomputed
          ~value:(Tensor.scalar (!total *. inv_n))
          (List.combine (N.params_theta net @ N.params_omega net) !acc)
      in
      A.backward loss;
      span ~parent:ep "nn.adam_step" (fun _ ->
          List.iter (fun (opt, ps) -> Nn.Optimizer.step opt ps) optimizers);
      if epoch mod env.config.Pnn.Config.val_every = 0 then
        ignore
          (span ~parent:ep "pnn.val_loss" (fun _ ->
               N.mc_loss_value env.pool net ~noises:val_noises
                 ~x:env.data.Pnn.Training.x_val ~labels:env.data.Pnn.Training.y_val));
      Tensor.get (A.value loss) 0 0)

let traced_fit env ~parent =
  let net = fresh_network env in
  let rng = Rng.create (fit_seed env) in
  let val_noises =
    Pnn.Noise.draw_many (Rng.split rng) ~epsilon:train_epsilon ~theta_shapes:env.shapes
      ~n:env.config.Pnn.Config.n_mc_val
  in
  let optimizers =
    [
      (Nn.Optimizer.adam ~lr:env.config.Pnn.Config.lr_omega (), N.params_omega net);
      (Nn.Optimizer.adam ~lr:env.config.Pnn.Config.lr_theta (), N.params_theta net);
    ]
  in
  Array.init env.wl.traced_epochs (fun epoch ->
      traced_epoch env net ~rng ~val_noises ~optimizers ~epoch ~parent)

(* One MC evaluation: the pre-drawn noise stream, then one cached forward
   pass per draw. *)
let traced_eval env net ~epsilon ~rng_seed ~parent =
  span ~parent "pnn.eval" (fun ev ->
      let rng = Rng.create rng_seed in
      let noises =
        span ~parent:ev "pnn.eval_noise" (fun _ ->
            Array.init n_test_draws (fun _ ->
                Pnn.Noise.draw rng ~epsilon ~theta_shapes:env.shapes))
      in
      Array.iter
        (fun noise ->
          ignore
            (span ~words:true ~parent:ev "pnn.eval_draw" (fun _ ->
                 N.predict_cached net ~noise env.split.Datasets.Synth.x_test)))
        noises)

let repeat n f = for _ = 1 to n do f () done

(* Single layers at the workload's own shapes. *)
let traced_layers env net ~parent =
  let x = env.data.Pnn.Training.x_train and labels = env.data.Pnn.Training.y_train in
  let noise = Pnn.Noise.draw (Rng.create (init_seed env)) ~epsilon:train_epsilon
      ~theta_shapes:env.shapes in
  let tape = A.compile (N.loss net ~noise ~x ~labels) in
  repeat 20 (fun () ->
      span ~parent "autodiff.refresh" (fun _ -> A.refresh tape);
      span ~parent "autodiff.backward" (fun _ -> A.backward_tape tape));
  let layer = List.hd (N.layers net) in
  let omega =
    Tensor.of_arrays
      [|
        Pnn.Nonlinear.omega_values layer.Pnn.Layer.act;
        Pnn.Nonlinear.omega_values layer.Pnn.Layer.neg;
      |]
  in
  let sur = A.compile (Surrogate.Model.eval_ad env.surrogate (A.const omega)) in
  repeat 50 (fun () -> span ~parent "surrogate.eval" (fun _ -> A.refresh sur));
  let rows = Tensor.rows x and k = Tensor.cols x + 1 and hidden = env.config.Pnn.Config.hidden in
  let rng = Rng.create (init_seed env) in
  let rand r c = Tensor.init r c (fun _ _ -> Rng.float rng) in
  let xa = rand rows k and th = rand k hidden in
  let mm = Tensor.zeros rows hidden in
  repeat 50 (fun () ->
      span ~parent "tensor.crossbar_matmul" (fun _ -> Tensor.matmul_into xa th ~dst:mm));
  let act = Tensor.zeros rows k in
  repeat 50 (fun () ->
      span ~parent "tensor.tanh" (fun _ -> Tensor.unop_into Tensor.Tanh xa ~dst:act);
      span ~parent "tensor.exp" (fun _ -> Tensor.unop_into Tensor.Exp xa ~dst:act));
  rows * k

(* The serving layers in process, on one predict round's bytes, then live
   predict rounds over the socket. *)
let traced_serving env model srv tr ~rounds ~parent =
  let frames = Buffer.create 16384 in
  let rows = Array.init batch (fun i -> tr.rows.(i mod Array.length tr.rows)) in
  Array.iteri
    (fun i r ->
      Buffer.add_bytes frames
        (P.encode_request (P.Predict { id = Int32.of_int (i + 1); features = r })))
    rows;
  let bytes = Buffer.to_bytes frames in
  let mc_row, mc_seed, _ = tr.mc.(0) in
  repeat 20 (fun () ->
      let reqs =
        span ~parent "serving.decode" (fun _ ->
            let rd = P.reader () in
            P.feed rd bytes ~pos:0 ~len:(Bytes.length bytes);
            let rec go acc =
              match P.next_frame rd with
              | Ok (Some p) -> (
                  match P.decode_request p with Ok r -> go (r :: acc) | Error _ -> go acc)
              | Ok None | Error _ -> List.rev acc
            in
            go [])
      in
      let batched =
        span ~parent "serving.batcher" (fun _ ->
            let b = Serving.Batcher.create ~max_batch:batch ~linger:0.001 in
            List.iter (fun r -> Serving.Batcher.push b ~now:0.0 r) reqs;
            Serving.Batcher.pop_ready b ~now:0.0)
      in
      let classes =
        span ~parent "serving.predict_batch" (fun _ -> SM.predict_batch model rows)
      in
      ignore
        (span ~parent "serving.predict_mc" (fun _ ->
             SM.predict_mc model ~pool:env.pool ~model:mc_model ~draws:mc_draws
               ~seed:(Int32.to_int mc_seed land 0x3fffffff)
               mc_row));
      ignore
        (span ~parent "serving.encode" (fun _ ->
             List.iteri
               (fun i r ->
                 ignore
                   (P.encode_response (P.Class { id = P.request_id r; cls = classes.(i) })))
               batched)));
  let before = stats_request srv in
  repeat rounds (fun () ->
      let buf = Buffer.create 16384 in
      for _ = 1 to batch do
        add_predict srv tr buf
      done;
      let t0, t1 = round_t srv buf batch in
      let id = !next_span in
      incr next_span;
      spans := { id; parent; name = "serving.round"; t0; t1; words = -1 } :: !spans);
  let after = stats_request srv in
  match (before, after) with
  | Some b, Some a ->
      let served = Int64.sub a.P.served b.P.served
      and batches = Int64.sub a.P.batches b.P.batches in
      Some (Int64.to_float served /. Int64.to_float batches)
  | _ -> None

let run_traced wl ~seed ~seconds ~artifacts ~serve_exe ~spans_file =
  let pool = Parallel.Pool.create ~jobs:1 () in
  let env, model, tr, srv, _ = setup wl ~seed ~artifacts ~serve_exe ~pool in
  let occupancy = samples () in
  let t_start = now () in
  let cycle = ref 0 in
  while !cycle < 1 || secs t_start (now ()) < seconds do
    span ~parent:0 "cycle" (fun c ->
        (* Untraced references for the tracing overhead: the same fit and
           evaluation, timed whole. *)
        let net = fresh_network env in
        let cfg = { env.config with Pnn.Config.max_epochs = wl.traced_epochs } in
        let r =
          span ~parent:c "ref.fit" (fun _ ->
              Pnn.Training.fit ~pool (Rng.create (fit_seed env))
                (N.of_layers cfg (N.layers net))
                env.data)
        in
        let losses = span ~parent:c "traced.fit" (fun p -> traced_fit env ~parent:p) in
        if !cycle = 0 then
          log "traced epochs reproduce the fit's training losses: %b"
            (Array.for_all2 same_float losses r.Pnn.Training.history.Nn.Train.train_losses);
        let trained = r.Pnn.Training.network in
        List.iteri
          (fun i epsilon ->
            let rng_seed = eval_seed env i in
            ignore
              (span ~parent:c "ref.eval" (fun _ ->
                   Pnn.Evaluation.mc_accuracy ~pool (Rng.create rng_seed) trained ~epsilon
                     ~n:n_test_draws ~x:env.split.Datasets.Synth.x_test
                     ~y:env.split.Datasets.Synth.y_test));
            traced_eval env trained ~epsilon ~rng_seed ~parent:c)
          test_epsilons;
        let elems = span ~parent:c "layers" (fun p -> traced_layers env trained ~parent:p) in
        add_meta "activation_elems" (string_of_int elems);
        match
          span ~parent:c "serving" (fun p ->
              traced_serving env model srv tr ~rounds:wl.predict_rounds ~parent:p)
        with
        | Some o -> push occupancy o
        | None -> ());
    incr cycle
  done;
  shutdown srv;
  add_meta "traced_epochs" (string_of_int wl.traced_epochs);
  add_meta "batch_occupancy" (Printf.sprintf "%.17g" (median occupancy));
  write_spans spans_file ~workload:wl.name ~seed;
  log "traced run: %d cycles, %d spans -> %s" !cycle (List.length !spans) spans_file;
  []

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false in
  let serve_exe = ref "" and artifacts = ref "_artifacts" and spans_file = ref "spans.tsv" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH to bin/serve.exe");
      ("--artifacts", Arg.Set_string artifacts, "DIR holding the surrogate artifact");
      ("--spans", Arg.Set_string spans_file, "FILE the traced run writes");
      ("--setup-only", Arg.Set setup_only, " time the set-ups alone (setup_s)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH [--setup-only]";
  let wl =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (use %s)\n" !workload
          (String.concat " | " (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  (* One job everywhere: the shared pool never spawns a domain. *)
  ignore (Parallel.require_sequential ());
  at_exit kill_live;
  let metrics =
    if !setup_only then
      run_setups wl ~seed:!seed ~artifacts:!artifacts ~serve_exe:!serve_exe
    else if !trace = 0 then
      run_untraced wl ~seed:!seed ~seconds:!seconds ~artifacts:!artifacts
        ~serve_exe:!serve_exe
    else
      run_traced wl ~seed:!seed ~seconds:!seconds ~artifacts:!artifacts
        ~serve_exe:!serve_exe ~spans_file:!spans_file
  in
  let metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"backend\": %S, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (Tensor.backend_name (Tensor.backend ()))
    (String.concat ", " (List.map metric metrics))
