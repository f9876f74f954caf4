(* Closed-loop serving benchmark: one client in one process drives a
   seeded request stream through Serve.serve / Serve.serve_batch and
   prints the end-to-end metrics (--trace 0), or replays the same stream
   with spans around the calls into each layer and prints the per-layer
   metrics (--trace 1).  See README.md for the workloads and metrics.

     main.exe --workload hot-mix --seed 1 --seconds 25 --trace 0

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Ft_ir
open Ft_runtime
module Serve = Ft_serve.Serve
module Supervisor = Ft_backend.Supervisor
module Compile_exec = Ft_backend.Compile_exec
module Exec_par = Ft_backend.Exec_par
module Interp = Ft_backend.Interp
module Machine = Ft_machine.Machine
module Race = Ft_analyze.Race
module Boundcheck = Ft_analyze.Boundcheck
module Auto = Ft_auto.Auto
module Pass = Ft_lower.Pass

let now_ns = Trace.now_ns

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let us_of_ns ns = float_of_int ns /. 1e3

(* ------------------------------------------------------------------ *)
(* Samples and statistics *)

(* Growable unboxed float buffer for the traced run's samples, some of
   which (differences of spans) are negative. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Linearly interpolated quantile; nan on no samples. *)
let quantile (xs : float array) q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

(* Log-bucketed histogram of positive samples.  Its memory is fixed
   whatever the run's request count, so the benchmark's own bookkeeping
   does not move the peak RSS it reports; quantiles are exact to the
   bucket width, 0.1%. *)
module Hist = struct
  let lo = 0.01
  let ratio = 1.001
  let nb = 30_000  (* up to lo * ratio ** nb, about 1e11 *)

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make nb 0; n = 0 }

  let add h v =
    let b =
      if v <= lo then 0 else min (nb - 1) (int_of_float (log (v /. lo) /. log ratio))
    in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1

  (* The [q] quantile, placed inside its bucket by rank. *)
  let quantile h q =
    if h.n = 0 then Float.nan
    else begin
      let rank = q *. float_of_int (h.n - 1) in
      let rec go b cum =
        let c = h.counts.(b) in
        if float_of_int (cum + c) > rank || b = nb - 1 then
          lo *. (ratio ** (float_of_int b +. ((rank -. float_of_int cum +. 0.5) /. float_of_int (max 1 c))))
        else go (b + 1) (cum + c)
      in
      go 0 0
    end

  (* Mean of the samples ranked between the [a] and [b] quantiles, each
     taken at its bucket's centre. *)
  let mean_between h a b =
    if h.n = 0 then Float.nan
    else begin
      let r0 = a *. float_of_int h.n and r1 = b *. float_of_int h.n in
      let sum = ref 0.0 and cum = ref 0.0 in
      Array.iteri
        (fun i c ->
          let c0 = !cum in
          cum := c0 +. float_of_int c;
          let take = Float.min !cum r1 -. Float.max c0 r0 in
          if take > 0.0 then
            sum := !sum +. (take *. lo *. (ratio ** (float_of_int i +. 0.5))))
        h.counts;
      !sum /. (r1 -. r0)
    end
end

(* Named sample lists for the per-layer metrics. *)
let samples : (string, Buf.t) Hashtbl.t = Hashtbl.create 64

let add name v =
  let b =
    match Hashtbl.find_opt samples name with
    | Some b -> b
    | None ->
      let b = Buf.create () in
      Hashtbl.add samples name b;
      b
  in
  Buf.add b v

let med name =
  match Hashtbl.find_opt samples name with
  | Some b -> median (Buf.to_array b)
  | None -> Float.nan

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  w_name : string;
  w_programs : (Progs.size * int) list;  (** program, tenant copies *)
  w_batch : int;  (** 0 = Serve.serve; n = Serve.serve_batch of n *)
  w_guard : bool;
  w_faults : bool;  (** one seeded fault plan per request *)
  w_prime : bool;  (** serve every function value once during setup *)
  w_pool : int option;  (** Exec_par pool size; None keeps the default, nproc *)
}

let hot_sizes =
  Progs.
    [ Subdivnet { Sub.n_faces = 256; in_feats = 32 };
      Longformer { Lf.seq_len = 256; feat_len = 32; w = 16 };
      Softras { Sr.img = 16; n_faces = 32; sigma = 0.01 };
      Gat { Gat.n_nodes = 128; in_feats = 16; out_feats = 16; avg_degree = 8 };
      Tvmlike { Tvm.mm_m = 128; mm_n = 128; mm_k = 64 } ]

let tiny_sizes =
  Progs.
    [ Subdivnet { Sub.n_faces = 8; in_feats = 2 };
      Longformer { Lf.seq_len = 4; feat_len = 2; w = 1 };
      Softras { Sr.img = 2; n_faces = 2; sigma = 0.01 };
      Gat { Gat.n_nodes = 4; in_feats = 2; out_feats = 2; avg_degree = 1 };
      Tvmlike { Tvm.mm_m = 4; mm_n = 4; mm_k = 4 } ]

(* 64 distinct small programs: 13 sizes of four kinds, 12 of tvmlike. *)
let churn_sizes =
  let v n f = List.init n f in
  Progs.(
    v 13 (fun i -> Subdivnet { Sub.n_faces = 16 + (8 * i); in_feats = 4 })
    @ v 13 (fun i -> Longformer { Lf.seq_len = 8 + (4 * i); feat_len = 4; w = 2 })
    @ v 13 (fun i -> Softras { Sr.img = 4 + i; n_faces = 8; sigma = 0.01 })
    @ v 13 (fun i ->
        Gat { Gat.n_nodes = 8 + (4 * i); in_feats = 4; out_feats = 4;
              avg_degree = 2 })
    @ v 12 (fun i -> Tvmlike { Tvm.mm_m = 8 + (4 * i); mm_n = 8; mm_k = 8 }))

(* tiny-mix runs on a one-domain pool.  With two domains each of its
   requests parks and wakes the other domain once per parallel region
   of a few microseconds, and each time a domain parks its virtual CPU
   halts; on a shared host the physical core then runs other guests,
   and the caches they leave behind are charged to the next request.
   Its CPU time per request followed the host's load: 0.079 to
   0.134 ms in runs minutes apart, against 0.072 to 0.080 ms on one
   domain.  See README.md, Steadiness. *)
let workloads =
  [ { w_name = "hot-mix"; w_programs = List.map (fun s -> (s, 1)) hot_sizes;
      w_batch = 0; w_guard = false; w_faults = false; w_prime = true; w_pool = None };
    { w_name = "tiny-mix"; w_programs = List.map (fun s -> (s, 4)) tiny_sizes;
      w_batch = 0; w_guard = false; w_faults = false; w_prime = true; w_pool = Some 1 };
    { w_name = "cold-churn"; w_programs = List.map (fun s -> (s, 1)) churn_sizes;
      w_batch = 0; w_guard = false; w_faults = false; w_prime = false; w_pool = None };
    { w_name = "chaos-batch";
      w_programs = List.map (fun s -> (s, 4)) tiny_sizes; w_batch = 8;
      w_guard = true; w_faults = true; w_prime = true; w_pool = None } ]

(* ------------------------------------------------------------------ *)
(* Set-up: programs, function values, buffers, server *)

(* One function value requests can name: a tenant's own built and
   auto-scheduled copy of a program. *)
type slot = {
  prog : int;  (** index into [env.progs] *)
  fn : Stmt.func;
  inputs : (string * Tensor.t) list array;  (** own copy per batch position *)
  outs : (string * Tensor.t) list array;
      (** output buffers; reused only after their response is verified *)
  mutable used : int;
}

type env = {
  wl : workload;
  seed : int;
  progs : Progs.t array;
  slots : slot array;
  horizon : int array;  (** fault-plan horizon per program; 0 = no faults *)
  policy : Supervisor.policy;
  mutable srv : Serve.t;
  mutable pending : (Serve.response * slot * (string * Tensor.t) list) list;
  mutable failed : int;  (** rejected, shed, failed closed or wrong output *)
}

(* Output buffers kept per workload before responses are verified. *)
let pool_bytes = 32 lsl 20

let span_opt tr ?prog name f =
  match tr with
  | None -> f ()
  | Some tr -> fst (Trace.with_span tr ?prog name (fun _ -> f ()))

(* Verify every pending response against the reference, then recycle
   the buffers: a failed status or an output off the reference by more
   than 1e-3 counts as failed. *)
let flush env =
  List.iter
    (fun (r, sl, outs) ->
      let p = env.progs.(sl.prog) in
      let why =
        match r.Serve.rs_status with
        | Serve.Rejected d -> Some ("rejected: " ^ Diag.to_string d)
        | Serve.Completed o when o.Supervisor.result = None ->
          Some ("failed closed: " ^ String.concat "; " (List.map Diag.to_string o.Supervisor.diags))
        | Serve.Completed _ ->
          if Progs.outputs_match p outs then None else Some "output differs from the reference"
      in
      Option.iter
        (fun why ->
          env.failed <- env.failed + 1;
          Printf.eprintf "servebench: request %d (%s) failed, %s\n%!" r.Serve.rs_id p.Progs.label why)
        why;
      List.iter (fun (_, t) -> Tensor.fill_f t 0.0) outs)
    env.pending;
  env.pending <- [];
  Array.iter (fun sl -> sl.used <- 0) env.slots

let take sl =
  let o = sl.outs.(sl.used) in
  sl.used <- sl.used + 1;
  o

(* A fresh server; a primed one has served every function value once. *)
let start env =
  env.srv <- Serve.create ~policy:env.policy ();
  Array.iteri
    (fun i sl ->
      let p = env.progs.(sl.prog) in
      let outs = Progs.fresh_outputs p in
      let r =
        Serve.serve env.srv (Serve.request ~id:(-1 - i) sl.fn (sl.inputs.(0) @ outs))
      in
      if not (Serve.served r && Progs.outputs_match p outs) then
        failwith ("priming request failed: " ^ p.Progs.label))
    (if env.wl.w_prime then env.slots else [||])

(* The programs and their data are a fixed suite, seeded by position;
   the run's seed draws the request stream and the fault plans.  gat's
   and softras's run time depends on their data (gat's graph, softras's
   face sizes), so data drawn from the run's seed would make each seed
   a different benchmark. *)
let setup ?tr ~seed wl =
  let progs =
    Array.of_list
      (List.mapi
         (fun i (size, _) ->
           let prog = Progs.label size in
           let timer = { Progs.time = (fun name f -> span_opt tr ~prog name f) } in
           Progs.make ~seed:(i + 1) ~timer size)
         wl.w_programs)
  in
  let n_fns = List.fold_left (fun a (_, k) -> a + k) 0 wl.w_programs in
  let positions = max 1 wl.w_batch in
  let slots =
    Array.of_list
      (List.concat
         (List.mapi
            (fun pi (_, tenants) ->
              let p = progs.(pi) in
              let depth =
                max 8 (min 256 (pool_bytes / (n_fns * max 1 (Progs.output_bytes p))))
              in
              List.init tenants (fun _ ->
                  let fn =
                    span_opt tr ~prog:p.Progs.label "auto.run" (fun () ->
                        Auto.run ~device:Types.Cpu (p.Progs.build ()))
                  in
                  { prog = pi; fn;
                    inputs =
                      Array.init positions (fun k ->
                          if k = 0 then p.Progs.inputs
                          else
                            List.map (fun (n, t) -> (n, Tensor.copy t)) p.Progs.inputs);
                    outs = Array.init depth (fun _ -> Progs.fresh_outputs p);
                    used = 0 }))
            wl.w_programs))
  in
  let policy = { Supervisor.default_policy with Supervisor.guard = wl.w_guard } in
  (* Fault horizon from one clean supervised run, sized as ftc serve
     sizes it: every planned ordinal falls inside what the chain runs. *)
  let horizon =
    Array.mapi
      (fun pi p ->
        if not wl.w_faults then 0
        else begin
          let sl = List.find (fun sl -> sl.prog = pi) (Array.to_list slots) in
          let sv = Supervisor.prepare ~policy sl.fn in
          let o = Supervisor.exec sv (sl.inputs.(0) @ Progs.fresh_outputs p) in
          if o.Supervisor.result = None then
            failwith ("clean sizing run failed: " ^ p.Progs.label);
          max 4 (Supervisor.served_kernels o * (policy.Supervisor.retries + 2))
        end)
      progs
  in
  let env =
    { wl; seed; progs; slots; horizon; policy;
      srv = Serve.create ~policy (); pending = []; failed = 0 }
  in
  start env;
  env

(* ------------------------------------------------------------------ *)
(* The request stream *)

let stream env = Random.State.make [| env.seed; Hashtbl.hash env.wl.w_name |]

(* The function values of the next unit: one request, or one batch. *)
let draw env st =
  let slots =
    Array.init (max 1 env.wl.w_batch) (fun _ ->
        env.slots.(Random.State.int st (Array.length env.slots)))
  in
  let room =
    Array.for_all (fun sl -> sl.used + Array.length slots <= Array.length sl.outs) slots
  in
  (slots, room)

let request env ~id k sl =
  let outs = take sl in
  let plan =
    let h = env.horizon.(sl.prog) in
    if h = 0 then None
    else Some (Machine.Fault_plan.make ~seed:(env.seed + (id * 7919)) ~faults:1 ~horizon:h)
  in
  (Serve.request ?plan ~id sl.fn (sl.inputs.(k) @ outs), sl, outs)

let serve_unit env rqs =
  if env.wl.w_batch = 0 then Array.map (fun (rq, _, _) -> Serve.serve env.srv rq) rqs
  else
    Array.of_list
      (Serve.serve_batch env.srv (Array.to_list (Array.map (fun (rq, _, _) -> rq) rqs)))

let keep env rqs rs =
  Array.iteri (fun k r -> let _, sl, outs = rqs.(k) in env.pending <- (r, sl, outs) :: env.pending) rs

(* ------------------------------------------------------------------ *)
(* The untraced timed phase *)

type phase = {
  lat_us : Hist.t;  (** per request: wall time of its serve / serve_batch call *)
  cpu_us : Hist.t;  (** per request: process CPU time of that call *)
  requests : int;
  wall_s : float;
  cpu_s : float;
  steal : float;  (** share of the host's CPU time the hypervisor took *)
  minor_words : float;
  majors : int;
}

(* Steal and total CPU ticks of the host since boot, from the first line
   of /proc/stat; (0, 0) where it cannot be read. *)
let steal_ticks () =
  match
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match String.split_on_char ' ' (Option.get (In_channel.input_line ic)) with
        | "cpu" :: rest ->
          let f = List.map int_of_string (List.filter (( <> ) "") rest) in
          (List.nth f 7, List.fold_left ( + ) 0 f)
        | _ -> (0, 0))
  with
  | v -> v
  | exception _ -> (0, 0)

(* Closed loop for [seconds] of wall time.  Verifying a full buffer pool
   pauses both clocks, so the phase's wall and CPU time cover serving
   only. *)
let timed_phase env ~seconds =
  let st = stream env in
  let lat = Hist.create () and cpu_lat = Hist.create () in
  let budget = int_of_float (seconds *. 1e9) in
  let wall = ref 0 and cpu = ref 0.0 in
  let since = ref 0 and cpu_since = ref 0.0 in
  let resume () =
    cpu_since := cpu_s ();
    since := now_ns ()
  in
  let pause () =
    wall := !wall + now_ns () - !since;
    cpu := !cpu +. cpu_s () -. !cpu_since
  in
  let g0 = Gc.quick_stat () and s0, t0 = steal_ticks () in
  let j = ref 0 and elapsed = ref 0 in
  resume ();
  while !elapsed < budget do
    let slots, room = draw env st in
    if not room then begin
      pause ();
      flush env;
      resume ()
    end;
    let rqs = Array.mapi (fun k sl -> request env ~id:(!j + k) k sl) slots in
    let c0 = cpu_s () in
    let t0 = now_ns () in
    let rs = serve_unit env rqs in
    let t1 = now_ns () in
    let c1 = cpu_s () in
    let us = us_of_ns (t1 - t0) and cus = (c1 -. c0) *. 1e6 in
    Array.iter
      (fun _ ->
        Hist.add lat us;
        Hist.add cpu_lat cus)
      rs;
    keep env rqs rs;
    j := !j + Array.length rs;
    elapsed := !wall + t1 - !since
  done;
  pause ();
  let g1 = Gc.quick_stat () and s1, t1 = steal_ticks () in
  flush env;
  { lat_us = lat; cpu_us = cpu_lat; requests = !j;
    wall_s = float_of_int !wall /. 1e9; cpu_s = !cpu;
    steal = float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0));
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections }

(* ------------------------------------------------------------------ *)
(* The traced run *)

(* Artifacts the benchmark holds itself, one per distinct program, to
   time layers below Serve on the same program. *)
type held = {
  sv : Supervisor.t;
  par : Compile_exec.compiled;
  seq : Compile_exec.compiled;
  spare_outs : (string * Tensor.t) list;
}

let kind_name env sl = Progs.kinds.(env.progs.(sl.prog).Progs.kind)

(* Compile-side layers, per distinct program: canonical hash, each
   lowering pass, race and bounds checks, both compiles, prepare, and
   the interpreter fallback.  Returns the held artifacts and the
   microkernel nests lowering makes across the programs. *)
let analyze env tr ~reps =
  let guard = env.policy.Supervisor.guard in
  let nests = ref 0 in
  let held =
  Array.mapi
    (fun pi (p : Progs.t) ->
      let sl = List.find (fun sl -> sl.prog = pi) (Array.to_list env.slots) in
      let fn = sl.fn and kind = Progs.kinds.(p.Progs.kind) in
      let span name f = Trace.with_span tr ~prog:p.Progs.label name (fun _ -> f ()) in
      let spare_outs = Progs.fresh_outputs p in
      let args = p.Progs.inputs @ spare_outs in
      let held = ref None in
      for rep = 1 to reps do
        add "canon.hash_us" (snd (span "canon.hash" (fun () -> Canon.canonical_hash fn)));
        let lowered =
          List.fold_left
            (fun f (ps : Pass.pass) ->
              let f', us = span ("lower." ^ ps.Pass.p_name) (fun () -> ps.Pass.p_run f) in
              add ("lower." ^ ps.Pass.p_name ^ "_us") us;
              f')
            fn Pass.base_passes
        in
        if rep = 1 then
          nests :=
            Stmt.fold
              (fun a s -> match s.Stmt.node with Stmt.Microkernel _ -> a + 1 | _ -> a)
              !nests lowered.Stmt.fn_body;
        (* a parallel compile race-checks the tree it compiles: the
           lowered one, or the original under guard *)
        let checked = if guard then fn else lowered in
        add "race.check_ms" (snd (span "race.check" (fun () -> Race.check_func checked)) /. 1e3);
        add "boundcheck.check_ms"
          (snd (span "boundcheck.check" (fun () -> Boundcheck.check_func fn)) /. 1e3);
        let par, par_us =
          span "compile_exec.compile" (fun () ->
              Compile_exec.compile ~parallel:true ~guard ~hooks:true fn)
        in
        let seq, seq_us =
          span "compile_exec.compile" (fun () ->
              Compile_exec.compile ~parallel:false ~guard ~hooks:true fn)
        in
        add "compile_exec.compile_ms" ((par_us +. seq_us) /. 1e3);
        let sv, prep_us = span "supervisor.prepare" (fun () -> Supervisor.prepare ~policy:env.policy fn) in
        add "supervisor.prepare_ms" (prep_us /. 1e3);
        add ("interp.run_us." ^ kind)
          (snd (span "interp.run" (fun () -> Interp.run_func ~guard fn args)));
        held := Some { sv; par; seq; spare_outs }
      done;
      Option.get !held)
    env.progs
  in
  (held, !nests)

type traced = {
  t_requests : int;
  t_units : int;
  unit_us : float array;  (** each serve / serve_batch span *)
  kernels : int;
  attempts : int;
  retried : int;
  degraded : int;
  guard_checks : int;
  st0 : Serve.stats;
  st1 : Serve.stats;
  groups : int;
  trips : int;
  submitted : int;  (** distinct programs submitted to the server *)
  keys : (string * string, unit) Hashtbl.t;  (** (program kind, cache key) *)
}

let hist_total srv = List.fold_left (fun a (_, c) -> a + c) 0 (Serve.batch_histogram srv)

(* Replay the first [n] requests of the stream with a span around every
   call into a layer.  Each request's unit span parents its spans. *)
let traced_phase env held tr ~n ~max_s =
  let st = stream env in
  let batch = env.wl.w_batch > 0 in
  let unit_us = Buf.create () in
  let kernels = ref 0 and attempts = ref 0 and retried = ref 0 in
  let degraded = ref 0 and guard_checks = ref 0 and units = ref 0 in
  let st0 = Serve.stats_copy (Serve.stats env.srv) in
  let groups0 = hist_total env.srv and trips0 = Serve.breaker_trips env.srv in
  (* a primed server has been sent every program already *)
  let submitted = Array.make (Array.length env.progs) env.wl.w_prime in
  let keys = Hashtbl.create 64 in
  (* [key_of] is timed on a second server that sees the same stream, so
     its hash memo is in the state the stream leaves it in, while the
     serving server's memo stays as the untraced run has it. *)
  let shadow = Serve.create ~policy:env.policy () in
  let t_start = now_ns () in
  let j = ref 0 in
  while !j < n && now_ns () - t_start < int_of_float (max_s *. 1e9) do
    let slots, room = draw env st in
    if not room then flush env;
    let rqs = Array.mapi (fun k sl -> request env ~id:(!j + k) k sl) slots in
    let prog_of sl = env.progs.(sl.prog).Progs.label in
    let (), _ =
      Trace.with_span tr ~rq:!j (if batch then "batch" else "request") (fun root ->
          let span (rq, sl, _) name f =
            Trace.with_span tr ~parent:root ~rq:rq.Serve.rq_id ~prog:(prog_of sl) name
              (fun _ -> f ())
          in
          Array.iter
            (fun ((_, sl, _) as m) ->
              add "serve.key_of_us" (snd (span m "serve.key_of" (fun () -> Serve.key_of shadow sl.fn))))
            rqs;
          let rs, serve_us =
            Trace.with_span tr ~parent:root ~rq:!j
              (if batch then "serve.serve_batch" else "serve.serve")
              (fun _ -> serve_unit env rqs)
          in
          Buf.add unit_us serve_us;
          let exec_total = ref 0.0 in
          Array.iteri
            (fun k ((_, sl, outs) as m) ->
              let h = held.(sl.prog) and kind = kind_name env sl in
              let args = sl.inputs.(k) @ h.spare_outs in
              let _, exec_us = span m "supervisor.exec" (fun () -> Supervisor.exec h.sv args) in
              let (), par_us = span m "compile_exec.run_par" (fun () -> h.par.Compile_exec.cd_run args []) in
              let (), seq_us = span m "compile_exec.run_seq" (fun () -> h.seq.Compile_exec.cd_run args []) in
              let (), snap_us =
                span m "tensor.snapshot" (fun () ->
                    List.iter (fun (_, t) -> ignore (Tensor.copy t)) outs)
              in
              exec_total := !exec_total +. exec_us;
              add "supervisor.self_us" (exec_us -. par_us);
              add "exec_par.dispatch_us" (par_us -. seq_us);
              add "tensor.snapshot_us" snap_us;
              add ("compile_exec.run_par_us." ^ kind) par_us;
              add ("compile_exec.run_seq_us." ^ kind) seq_us)
            rqs;
          (* Serve's own time: its span less the supervised execution of
             the same programs, spread over the unit's requests. *)
          let self = (serve_us -. !exec_total) /. float_of_int (Array.length rqs) in
          Array.iter (fun _ -> add "serve.self_us" self) rqs;
          Array.iteri
            (fun k (r : Serve.response) ->
              let _, sl, _ = rqs.(k) in
              submitted.(sl.prog) <- true;
              Hashtbl.replace keys (kind_name env sl, r.Serve.rs_key) ();
              guard_checks := !guard_checks + r.Serve.rs_guard_checks;
              match r.Serve.rs_status with
              | Serve.Completed o ->
                kernels := !kernels + Supervisor.served_kernels o;
                attempts := !attempts + List.length o.Supervisor.attempts;
                if o.Supervisor.retried then incr retried;
                if o.Supervisor.degraded then incr degraded
              | Serve.Rejected _ -> ())
            rs;
          keep env rqs rs)
    in
    incr units;
    j := !j + Array.length rqs
  done;
  flush env;
  { t_requests = !j; t_units = !units; unit_us = Buf.to_array unit_us;
    kernels = !kernels; attempts = !attempts; retried = !retried;
    degraded = !degraded; guard_checks = !guard_checks; st0;
    st1 = Serve.stats_copy (Serve.stats env.srv);
    groups = hist_total env.srv - groups0;
    trips = Serve.breaker_trips env.srv - trips0;
    submitted = Array.fold_left (fun a b -> if b then a + 1 else a) 0 submitted;
    keys }

(* ------------------------------------------------------------------ *)
(* Host facts and output *)

(* CPUs this process may run on (what nproc prints), from the affinity
   list; the OCaml runtime's count when that is unreadable. *)
let nproc () =
  let count spec =
    List.fold_left
      (fun a r ->
        match String.split_on_char '-' (String.trim r) with
        | [ x ] when x <> "" -> a + (ignore (int_of_string x); 1)
        | [ x; y ] -> a + int_of_string y - int_of_string x + 1
        | _ -> a)
      0 (String.split_on_char ',' spec)
  in
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
            (match String.split_on_char ':' l with
             | [ "Cpus_allowed_list"; v ] -> Some (count v)
             | _ -> go ())
        in
        go ())
  in
  match from_status () with
  | Some n when n > 0 -> n
  | _ | (exception _) -> Domain.recommended_domain_count ()

(* Peak resident set size (VmHWM) in MB. *)
let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
            (match String.split_on_char ':' l with
             | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
             | _ -> go ())
        in
        go ())
  in
  match from_status () with
  | Some kb -> float_of_int kb /. 1024.0
  | None | (exception _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let print_result ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %14.4f %s\n" n v u) metrics;
  Printf.printf "attempted=%d failed=%d failed_ratio=%.6f\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  let m =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string n)
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          (Trace.json_string u))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " m)

(* Set-up takes 0.03-0.2 s, so one sample is at the mercy of a single
   GC or scheduling hiccup: it is repeated and the median reported, and
   the last set-up's environment is the one timed.  The heap is compacted
   before each set-up, so none inherits the last one's garbage and the
   peak RSS holds one environment. *)
let setup_reps = 9

(* Every time in the end-to-end metrics is process CPU time.  On a
   shared virtual machine the hypervisor takes CPU time from the guest
   (steal) for minutes at a time, and a domain waiting for a stolen CPU
   stalls every parallel region and GC barrier: in runs with 20-35%
   steal, wall-clock throughput and latency were 2-4x worse while CPU
   time per request moved by under 10%, because stolen time is not
   charged to the process.  The wall-clock figures are printed beside
   them, with the steal the phase saw. *)
let run_untraced wl ~seed ~seconds =
  let times = Array.make setup_reps 0.0 in
  let env = ref None in
  for i = 0 to setup_reps - 1 do
    env := None;
    Gc.compact ();
    let c0 = cpu_s () in
    let e = setup ~seed wl in
    times.(i) <- cpu_s () -. c0;
    env := Some e
  done;
  let env = Option.get !env in
  Gc.compact ();
  let ph = timed_phase env ~seconds in
  let n = float_of_int ph.requests in
  Printf.printf
    "wall clock: throughput %.1f req/s, latency p50 %.4f ms, p90 %.4f ms; \
     host steal %.1f%%\n"
    (n /. ph.wall_s) (Hist.quantile ph.lat_us 0.5 /. 1e3) (Hist.quantile ph.lat_us 0.9 /. 1e3)
    (100.0 *. ph.steal);
  let attempted = ph.requests and failed = env.failed in
  [ ("setup_s", median times, "s");
    ("cpu_ms_per_req", ph.cpu_s *. 1e3 /. n, "ms");
    ("cpu_iqm_ms", Hist.mean_between ph.cpu_us 0.25 0.75 /. 1e3, "ms");
    ("cpu_tail10_ms", Hist.mean_between ph.cpu_us 0.9 1.0 /. 1e3, "ms");
    ("ok_ratio", float_of_int (attempted - failed) /. n, "fraction");
    ("peak_rss_mb", peak_rss_mb (), "MB") ],
  attempted, failed

(* Requests the traced replay covers at most, to bound its length and
   the trace file. *)
let max_traced = 10_000

let run_traced wl ~seed ~seconds ~trace_file =
  let tr = Trace.create () in
  let env = setup ~tr ~seed wl in
  Gc.compact ();
  (* The untraced baseline for the tracing overhead, and GC rates. *)
  let ph = timed_phase env ~seconds:(seconds /. 4.0) in
  start env;
  let held, nests = analyze env tr ~reps:3 in
  let tp =
    traced_phase env held tr ~n:(max 200 (min max_traced ph.requests))
      ~max_s:(seconds /. 2.0)
  in
  Trace.write tr trace_file;
  let n = float_of_int tp.t_requests in
  let per_k x = float_of_int x *. 1000.0 /. n in
  let d f = f tp.st1 - f tp.st0 in
  let hits = d (fun s -> s.Serve.st_hits) and misses = d (fun s -> s.Serve.st_misses) in
  let by_kind name unit f = Array.to_list (Array.map (fun k -> (name ^ "." ^ k, f k, unit)) Progs.kinds) in
  (* Cache keys per program: above 1 when separately built copies of
     one program do not share artifacts.  Per kind, from the keys of the
     responses, over the kind's distinct programs. *)
  let keys kind =
    let n_keys = Hashtbl.fold (fun (k, _) () a -> if k = kind then a + 1 else a) tp.keys 0 in
    let n_progs =
      Array.fold_left (fun a (p : Progs.t) -> if Progs.kinds.(p.Progs.kind) = kind then a + 1 else a) 0 env.progs
    in
    float_of_int n_keys /. float_of_int n_progs
  in
  (* set-up layers come from the set-up spans *)
  let durations name =
    Array.of_list
      (List.filter_map
         (fun (s : Trace.span) ->
           if s.Trace.name = name then Some (float_of_int (s.Trace.t1 - s.Trace.t0) /. 1e6)
           else None)
         tr.Trace.spans)
  in
  let total_ms name = Array.fold_left ( +. ) 0.0 (durations name) in
  let metrics =
    [ ("serve.key_of_us", med "serve.key_of_us", "us");
      ("canon.hash_us", med "canon.hash_us", "us");
      ("serve.self_us", med "serve.self_us", "us");
      ("supervisor.self_us", med "supervisor.self_us", "us");
      ("tensor.snapshot_us", med "tensor.snapshot_us", "us");
      ("exec_par.dispatch_us", med "exec_par.dispatch_us", "us") ]
    @ by_kind "compile_exec.run_seq_us" "us" (fun k -> med ("compile_exec.run_seq_us." ^ k))
    @ by_kind "compile_exec.run_par_us" "us" (fun k -> med ("compile_exec.run_par_us." ^ k))
    @ by_kind "exec_par.speedup" "x" (fun k ->
        med ("compile_exec.run_seq_us." ^ k) /. med ("compile_exec.run_par_us." ^ k))
    @ [ ("machine.kernels_per_req", float_of_int tp.kernels /. n, "kernels/req");
        ("lower.microkernel_nests", float_of_int nests, "count");
        ("serve.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
        ("serve.evictions_per_kreq", per_k (d (fun s -> s.Serve.st_evictions)), "1/kreq");
        ("supervisor.prepare_ms", med "supervisor.prepare_ms", "ms");
        ("race.check_ms", med "race.check_ms", "ms");
        ("compile_exec.compile_ms", med "compile_exec.compile_ms", "ms");
        ("lower.normalize_us", med "lower.normalize_us", "us");
        ("lower.hoist_us", med "lower.hoist_us", "us");
        ("lower.blockize_us", med "lower.blockize_us", "us");
        ("serve.invalidations_per_kreq", per_k (d (fun s -> s.Serve.st_invalidations)), "1/kreq");
        ("serve.breaker_trips", float_of_int tp.trips, "count");
        ("serve.groups_per_batch", float_of_int tp.groups /. float_of_int (max 1 tp.t_units), "groups/batch");
        ("supervisor.retried_ratio", float_of_int tp.retried /. n, "ratio");
        ("supervisor.degraded_ratio", float_of_int tp.degraded /. n, "ratio");
        ("supervisor.attempts_per_req", float_of_int tp.attempts /. n, "attempts/req");
        ("boundcheck.check_ms", med "boundcheck.check_ms", "ms");
        ("compile_exec.guard_checks_per_req", float_of_int tp.guard_checks /. n, "checks/req") ]
    @ by_kind "interp.run_us" "us" (fun k -> med ("interp.run_us." ^ k))
    @ [ ("serve.keys_per_program",
          float_of_int (Serve.distinct_keys env.srv) /. float_of_int tp.submitted,
          "keys/program") ]
    @ by_kind "serve.keys_per_program" "keys/program" keys
    @ [ ("auto.run_ms", median (durations "auto.run"), "ms");
        ("workloads.inputs_ms", total_ms "workloads.inputs", "ms");
        ("workloads.reference_ms", total_ms "workloads.reference", "ms");
        ("gc.minor_kb_per_req",
          ph.minor_words *. float_of_int (Sys.word_size / 8) /. 1024.0 /. float_of_int ph.requests,
          "KiB/req");
        ("gc.major_per_kreq", float_of_int ph.majors *. 1000.0 /. float_of_int ph.requests, "1/kreq");
        ("trace.overhead_ratio",
          median tp.unit_us /. Hist.quantile ph.lat_us 0.5,
          "ratio") ]
  in
  Printf.printf "traced: %d of %d requests replayed, %d spans -> %s\n" tp.t_requests
    ph.requests (Trace.length tr) trace_file;
  (metrics, ph.requests + tp.t_requests, env.failed)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_file = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME hot-mix | tiny-mix | cold-churn | chaos-batch");
      ("--seed", Arg.Set_int seed, "N seed of the request stream and the fault plans");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer run (1)");
      ("--trace-file", Arg.Set_string trace_file, "PATH where the traced run writes its spans") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let wl =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "servebench: unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let cores = nproc () and default_pool = Exec_par.num_domains () in
  Option.iter Exec_par.set_num_domains wl.w_pool;
  let pool = Exec_par.num_domains () in
  Printf.printf "servebench: workload=%s seed=%d seconds=%g trace=%d\n" wl.w_name !seed
    !seconds !trace;
  Printf.printf "host: nproc=%d exec_par_domains=%d (default %d) ocaml=%s\n%!" cores pool
    default_pool Sys.ocaml_version;
  if pool > cores then begin
    Printf.eprintf "servebench: refusing to run a %d-domain pool on %d CPUs\n" pool cores;
    exit 2
  end;
  let metrics, attempted, failed =
    if !trace = 0 then run_untraced wl ~seed:!seed ~seconds:!seconds
    else begin
      let path =
        if !trace_file <> "" then !trace_file
        else begin
          let dir = Filename.concat "servebench" "traces" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Filename.concat dir (wl.w_name ^ ".json")
        end
      in
      run_traced wl ~seed:!seed ~seconds:!seconds ~trace_file:path
    end
  in
  print_result ~attempted ~failed metrics;
  if failed > 0 then exit 1
