(* The two kernel workloads: conv_stream (Fig. 16 ResNet-18 layers,
   generated Os driver against the manual Rs driver) and matmul_sweep
   (Table I engines x flows, each problem run by the generated driver
   blocking and double-buffered, the manual driver and the naive CPU
   reference).

   Set-up builds the SoCs, fills the operands from the seed and
   computes the Gold outputs; a pass compiles and runs every item and
   checks it. *)

let tol = 1e-6

let seeded_view ~seed ~tag view =
  let a = Array.make (Memref_view.num_elements view) 0.0 in
  Gold.fill_deterministic ~seed:(Hashtbl.hash (seed, tag)) a;
  Memref_view.fill_from view a;
  a

(* Gold comparison and fidelity pin of one simulated run. *)
let check label ~gold view counters =
  Hb.span ~item:label "glue.check" (fun () ->
      let d = Gold.max_abs_diff gold (Memref_view.to_array view) in
      if not (d <= tol) then Hb.fail label (Printf.sprintf "output differs from Gold by %g" d);
      Pins.check ~seeded:false label (Pins.counters counters))

let reset label view zeros =
  Hb.span ~item:label "glue.reset" (fun () -> Memref_view.fill_from view zeros)

(* One simulated run of an item: [prepare] compiles when the driver is
   generated and returns the run; reset the output, run under
   [Axi4mlir.measure] in span [layer], count and check. The counters
   are left in [last]. *)
let last : Perf_counters.t option ref = ref None

let run_item label ~layer ~prefix bench ~out ~zeros ~gold prepare =
  last := None;
  Hb.item label (fun () ->
      let run = prepare () in
      reset label out zeros;
      let c = Hb.span ~item:label layer (fun () -> Axi4mlir.measure bench run) in
      last := Some c;
      Hb.count_run prefix c;
      check label ~gold out c)

let compile label bench build ?options () =
  Hb.span ~item:label "compile" (fun () -> Axi4mlir.compile bench ?options (build ()))

(* {1 conv_stream} *)

let conv_layers = [ "224_3_7_64_2"; "28_128_3_128_1"; "14_256_1_512_2"; "7_512_3_512_1" ]

let conv_operands ~host ~seed ~rows (l : Resnet18.layer) =
  let open Resnet18 in
  let rows = min rows l.ohw in
  let ih = ((rows - 1) * l.stride) + l.fhw and iw = l.ihw in
  let make flow =
    let b = Axi4mlir.create ~host (Presets.conv ~flow ()) in
    let i, w, o =
      Axi4mlir.alloc_conv_operands ~stride:l.stride b ~n:1 ~ic:l.ic ~ih ~iw ~oc:l.oc ~fh:l.fhw
        ~fw:l.fhw
    in
    (b, i, w, o)
  in
  let gen = make "Os" and man = make "Ws" in
  let fill (_, i, w, _) =
    (seeded_view ~seed ~tag:(l.label, "I") i, seeded_view ~seed ~tag:(l.label, "W") w)
  in
  let idata, wdata = fill gen in
  ignore (fill man);
  let gold =
    Gold.conv2d ~stride:l.stride ~n:1 ~ic:l.ic ~ih ~iw ~oc:l.oc ~fh:l.fhw ~fw:l.fhw idata wdata
  in
  let build () =
    Axi4mlir.build_conv_module ~stride:l.stride ~n:1 ~ic:l.ic ~ih ~iw ~oc:l.oc ~fh:l.fhw
      ~fw:l.fhw ()
  in
  (gen, man, gold, build)

(* The generated Os run of one layer: the unit the ROADMAP probe and
   the conv pass share. *)
let conv_gen label (bench, i, w, o) ~gold ~zeros build =
  run_item label ~layer:"run.gen" ~prefix:"gen" bench ~out:o ~zeros ~gold (fun () ->
      let compiled = compile label bench build () in
      fun () ->
      Axi4mlir.run_func bench ~copy_strategy:Dma_library.Specialized compiled "conv_call"
        [ Interp.M i; Interp.M w; Interp.M o ])

let conv_manual label (bench, i, w, o) ~gold ~zeros ~stride =
  run_item label ~layer:"run.manual" ~prefix:"man" bench ~out:o ~zeros ~gold (fun () () ->
      Manual_conv.run bench.Axi4mlir.soc bench.Axi4mlir.accel ~flow:"Rs" ~stride ~input:i
        ~filter:w ~output:o ())

let find_layer name =
  match Resnet18.find name with Some l -> l | None -> failwith ("unknown layer " ^ name)

let conv_stream ~host ~seed =
  let items =
    List.map
      (fun name ->
        let l = find_layer name in
        let gen, man, gold, build = conv_operands ~host ~seed ~rows:1 l in
        (l, gen, man, gold, build, Array.make (Array.length gold) 0.0))
      conv_layers
  in
  fun () ->
    List.iter
      (fun ((l : Resnet18.layer), gen, man, gold, build, zeros) ->
        let label = "conv/" ^ l.Resnet18.label in
        conv_gen (label ^ "/gen-Os") gen ~gold ~zeros build;
        conv_manual (label ^ "/manual-Rs") man ~gold ~zeros ~stride:l.Resnet18.stride)
      items

(* The ROADMAP per-layer probe: layer 7_512_3_512_1, two output rows,
   generated Os driver. Returns the host seconds of the run and the
   words it allocated, next to its counters. *)
let probe ~host ~seed =
  let l = find_layer "7_512_3_512_1" in
  let gen, _, gold, build = conv_operands ~host ~seed ~rows:2 l in
  let zeros = Array.make (Array.length gold) 0.0 in
  let bench, i, w, o = gen in
  let compiled = Axi4mlir.compile bench (build ()) in
  Memref_view.fill_from o zeros;
  let a0 = Hb.alloc_words () and t0 = Hb.now () in
  let c =
    Axi4mlir.measure bench (fun () ->
        Axi4mlir.run_func bench ~copy_strategy:Dma_library.Specialized compiled "conv_call"
          [ Interp.M i; Interp.M w; Interp.M o ])
  in
  let dt = Hb.now () -. t0 and da = Hb.alloc_words () -. a0 in
  let d = Gold.max_abs_diff gold (Memref_view.to_array o) in
  if not (d <= tol) then Hb.fail "probe/7_512_3_512_1" "output differs from Gold";
  (dt, da, c)

(* {1 matmul_sweep} *)

let versions = [ (Accel_matmul.V1, "v1"); (V2, "v2"); (V3, "v3"); (V4, "v4") ]
let sizes = [ 4; 8; 16 ]
let dims = 32

let db_options = { Axi4mlir.default_codegen with Axi4mlir.double_buffer = true }

let matmul_sweep ~host ~seed =
  let d = dims in
  let operands bench =
    let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:d ~n:d ~k:d in
    let adata = seeded_view ~seed ~tag:"A" a and bdata = seeded_view ~seed ~tag:"B" b in
    (a, b, c, adata, bdata)
  in
  let problems =
    List.concat_map
      (fun (version, vname) ->
        List.concat_map
          (fun size ->
            List.map
              (fun flow ->
                let bench = Axi4mlir.create ~host (Presets.matmul ~version ~size ~flow ()) in
                (Printf.sprintf "mm/%s_%d/%s/%d" vname size flow d, flow, bench, operands bench))
              (Presets.matmul_flows version))
          sizes)
      versions
  in
  let cpu = Axi4mlir.create ~host (Presets.matmul ~version:V1 ~size:4 ()) in
  let ca, cb, cc, adata, bdata = operands cpu in
  let gold = Gold.matmul ~m:d ~n:d ~k:d adata bdata in
  let zeros = Array.make (d * d) 0.0 in
  let build () = Axi4mlir.build_matmul_module ~m:d ~n:d ~k:d () in
  fun () ->
    List.iter
      (fun (label, flow, bench, (a, b, c, _, _)) ->
        let generated name layer prefix options =
          let label = label ^ "/" ^ name in
          run_item label ~layer ~prefix bench ~out:c ~zeros ~gold (fun () ->
              let compiled = compile label bench build ~options () in
              fun () -> Axi4mlir.run_matmul bench ~options compiled ~a ~b ~c)
        in
        generated "gen" "run.gen" "gen" Axi4mlir.default_codegen;
        generated "gen-db" "run.gen_db" "db" db_options;
        run_item (label ^ "/manual") ~layer:"run.manual" ~prefix:"man" bench ~out:c ~zeros ~gold
          (fun () () ->
            Manual_matmul.run bench.Axi4mlir.soc bench.Axi4mlir.accel ~flow ~a ~b ~c ()))
      problems;
    let label = Printf.sprintf "mm/cpu-ref/%d" d in
    run_item label ~layer:"cpu_ref" ~prefix:"cpu" cpu ~out:cc ~zeros ~gold (fun () () ->
        Cpu_reference.matmul cpu.Axi4mlir.soc ~a:ca ~b:cb ~c:cc)
