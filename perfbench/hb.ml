(* Host-side measurement primitives shared by every workload: the
   clock, the allocation counter, in-memory spans, the per-pass
   bookkeeping of deterministic counts and failed items, and summary
   statistics. Everything here is observed from outside the library:
   the benchmark wraps its own calls into the layers' entry points. *)

let now = Unix.gettimeofday

(* Words allocated on the OCaml heap so far: minor allocations plus the
   direct major allocations (major words not promoted from the minor
   heap). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* {1 Spans}

   Spans are recorded by a [Trace] tracer whose clock is host wall time
   in microseconds and whose counter snapshot is [alloc_words], so
   every span end carries the words allocated while it was open. The
   tuner writes its evaluation slices into the same tracer. *)

let tracer = Trace.create ()
let epoch = now ()
let tracing () = Trace.enabled tracer

let start_tracing () =
  Trace.enable tracer
    ~clock:(fun () -> (now () -. epoch) *. 1e6)
    ~snapshot:(fun () -> [ ("alloc_words", alloc_words ()) ])

(* [span name f] runs [f]; when tracing it records the call as a span
   nested in the innermost open one, with the item it worked for. *)
let span ?(item = "") name f = Trace.with_span tracer ~args:[ ("item", Trace.Str item) ] name f

type span = {
  sp_name : string;
  sp_dur : float;  (** seconds *)
  sp_self : float;  (** seconds, minus the direct children *)
  sp_alloc : float;  (** words allocated while open *)
}

(* The closed spans of a recording, from its begin/end pairs (the item
   stays in the recording, for the written trace). Children
   of one span never overlap: the benchmark is sequential. *)
let spans (events : Trace.event list) =
  let alloc (e : Trace.event) =
    match List.assoc_opt "d_alloc_words" e.Trace.ev_args with Some (Trace.Num v) -> v | _ -> 0.0
  in
  (* [open_] holds each open span's begin event and its children's time *)
  let rec go open_ acc = function
    | [] -> List.rev acc
    | (e : Trace.event) :: rest -> (
      match (e.Trace.ev_kind, open_) with
      | Trace.Begin, _ -> go ((e, ref 0.0) :: open_) acc rest
      | Trace.End, ((b : Trace.event), children) :: up ->
        let dur = (e.Trace.ev_ts -. b.Trace.ev_ts) /. 1e6 in
        (match up with (_, c) :: _ -> c := !c +. dur | [] -> ());
        let s =
          {
            sp_name = b.Trace.ev_name;
            sp_dur = dur;
            sp_self = dur -. !children;
            sp_alloc = alloc e;
          }
        in
        go up (s :: acc) rest
      | _ -> go open_ acc rest)
  in
  go [] [] events

(* {1 Per-pass bookkeeping} *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let attempted = ref 0
let failures : (string * string) list ref = ref []

let reset_pass () =
  Hashtbl.reset counts;
  attempted := 0;
  failures := []

let count name v =
  Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let fail item reason = failures := (item, reason) :: !failures

(* One checked item: counts as attempted, and fails if [f] raises or
   reports a failure for [label]. *)
let item label f =
  incr attempted;
  match f () with
  | () -> ()
  | exception e -> fail label ("raised " ^ Printexc.to_string e)

(* Counters every simulated run contributes, under [prefix]. *)
let count_run prefix (c : Perf_counters.t) =
  count (prefix ^ ".words") (c.Perf_counters.dma_words_sent +. c.Perf_counters.dma_words_received);
  count (prefix ^ ".transactions") c.Perf_counters.dma_transactions;
  count (prefix ^ ".cache_refs") (Perf_counters.cache_references c);
  count (prefix ^ ".l1_accesses") c.Perf_counters.l1_accesses;
  count (prefix ^ ".l1_misses") c.Perf_counters.l1_misses

(* {1 Statistics} *)

(* Linear-interpolated quantile of a non-empty list, [q] in [0, 1]. *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Hb.quantile: empty";
  let pos = q *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* A fixed integer and float loop, timed beside each pass so that
   host-speed drift between runs shows up in the provenance. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0x2545F491 and acc = ref 0.0 in
  for i = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13) land 0x3FFFFFFF;
    x := !x lxor (!x lsr 7);
    acc := !acc +. (float_of_int (!x land 1023) *. 1e-3) +. float_of_int i
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0
