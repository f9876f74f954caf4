(* The five paper programs at a chosen size, with seeded inputs and the
   expected outputs of the workload module's plain-OCaml reference (never
   the compiler under test). *)

open Ft_ir
open Ft_runtime
module Sub = Ft_workloads.Subdivnet
module Lf = Ft_workloads.Longformer
module Sr = Ft_workloads.Softras
module Gat = Ft_workloads.Gat
module Tvm = Ft_workloads.Tvmlike

type size =
  | Subdivnet of Sub.config
  | Longformer of Lf.config
  | Softras of Sr.config
  | Gat of Gat.config
  | Tvmlike of Tvm.mm_config

let kinds = [| "subdivnet"; "longformer"; "softras"; "gat"; "tvmlike" |]

let kind_of = function
  | Subdivnet _ -> 0
  | Longformer _ -> 1
  | Softras _ -> 2
  | Gat _ -> 3
  | Tvmlike _ -> 4

let label = function
  | Subdivnet c -> Printf.sprintf "subdivnet-%dx%d" c.Sub.n_faces c.Sub.in_feats
  | Longformer c ->
    Printf.sprintf "longformer-%d/%d/%d" c.Lf.seq_len c.Lf.feat_len c.Lf.w
  | Softras c -> Printf.sprintf "softras-%d/%d" c.Sr.img c.Sr.n_faces
  | Gat c ->
    Printf.sprintf "gat-%d/%d/%d" c.Gat.n_nodes c.Gat.in_feats c.Gat.avg_degree
  | Tvmlike c -> Printf.sprintf "tvmlike-%dx%dx%d" c.Tvm.mm_m c.Tvm.mm_n c.Tvm.mm_k

type t = {
  kind : int;  (** index into {!kinds} *)
  label : string;
  build : unit -> Stmt.func;  (** a freshly built (unscheduled) function value *)
  inputs : (string * Tensor.t) list;
  expected : (string * Tensor.t) list;  (** output parameter -> reference *)
}

(* Lets the caller wrap the generator and reference calls in spans. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let make ~seed ~(timer : timer) size =
  let gen f = timer.time "workloads.inputs" f in
  let reference f = timer.time "workloads.reference" f in
  let build, inputs, expected =
    match size with
    | Subdivnet c ->
      let e, adj = gen (fun () -> Sub.gen_inputs ~seed c) in
      ( (fun () -> Sub.ft_func c),
        [ ("e", e); ("adj", adj) ],
        [ ("y", reference (fun () -> Sub.reference e adj)) ] )
    | Longformer c ->
      let q, k, v = gen (fun () -> Lf.gen_inputs ~seed c) in
      ( (fun () -> Lf.ft_func c),
        [ ("Q", q); ("K", k); ("V", v) ],
        [ ("Y", reference (fun () -> Lf.reference q k v ~w:c.Lf.w)) ] )
    | Softras c ->
      let cx, cy, r = gen (fun () -> Sr.gen_inputs ~seed c) in
      ( (fun () -> Sr.ft_func c),
        [ ("cx", cx); ("cy", cy); ("r", r) ],
        [ ( "img",
            reference (fun () ->
                Sr.reference cx cy r ~img:c.Sr.img ~sigma:c.Sr.sigma) ) ] )
    | Gat c ->
      let (rowptr, colidx, n_edges), (x, w, a1, a2) =
        gen (fun () -> (Gat.gen_graph ~seed c, Gat.gen_inputs ~seed c))
      in
      ( (fun () -> Gat.ft_func c ~n_edges),
        [ ("x", x); ("w", w); ("a1", a1); ("a2", a2); ("rowptr", rowptr);
          ("colidx", colidx) ],
        [ ("out", reference (fun () -> Gat.reference x w a1 a2 rowptr colidx)) ]
      )
    | Tvmlike c ->
      (* [Tvmlike.mm_inputs] has fixed seeds; draw from the run's seed. *)
      let a, b =
        gen (fun () ->
            ( Tensor.rand ~seed Types.F32 [| c.Tvm.mm_m; c.Tvm.mm_k |],
              Tensor.rand ~seed:(seed + 1) Types.F32 [| c.Tvm.mm_k; c.Tvm.mm_n |] ))
      in
      ( (fun () -> Tvm.mm_func c),
        [ ("A", a); ("B", b) ],
        [ ("C", reference (fun () -> Tvm.mm_reference a b)) ] )
  in
  { kind = kind_of size; label = label size; build; inputs; expected }

(* Zeroed buffers for the output parameters, shaped like the references. *)
let fresh_outputs p =
  List.map
    (fun (n, r) -> (n, Tensor.zeros (Tensor.dtype r) (Tensor.shape r)))
    p.expected

let output_bytes p =
  List.fold_left (fun a (_, r) -> a + Tensor.byte_size r) 0 p.expected

(* Every output within 1e-3 of the reference, as test_workloads does. *)
let outputs_match p outs =
  List.for_all
    (fun (n, r) -> Tensor.all_close ~tol:1e-3 (List.assoc n outs) r)
    p.expected
