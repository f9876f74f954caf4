(* In-memory spans around the benchmark's calls into each layer, written
   out in Chrome trace format (chrome://tracing, Perfetto) when the run
   ends.  Every span records its name, start, end, parent span, request
   id and program; times come from the monotonic clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  rq : int;      (** request id, -1 outside the request stream *)
  prog : string; (** program label, "" when not about one program *)
  t0 : int;
  t1 : int;
}

type t = { mutable spans : span list; mutable next : int; origin : int }

let create () = { spans = []; next = 0; origin = now_ns () }

(* [with_span tr name f] runs [f id] inside a new span and returns its
   result with the span's duration in microseconds. *)
let with_span tr ?(parent = -1) ?(rq = -1) ?(prog = "") name f =
  let id = tr.next in
  tr.next <- id + 1;
  let t0 = now_ns () in
  let r = f id in
  let t1 = now_ns () in
  tr.spans <- { id; name; parent; rq; prog; t0; t1 } :: tr.spans;
  (r, float_of_int (t1 - t0) /. 1e3)

let length tr = tr.next

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("X") events on one thread: nested spans nest in the viewer. *)
let write tr path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      let cat =
        match String.index_opt s.name '.' with
        | Some k -> String.sub s.name 0 k
        | None -> s.name
      in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\
         \"rq\":%d,\"prog\":%s}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string cat)
        (float_of_int (s.t0 - tr.origin) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent s.rq (json_string s.prog))
    (List.rev tr.spans);
  output_string oc "]}\n";
  close_out oc
