let run soc (config : Accel_config.t) ?(flow = "Ws") ?(stride = 1) ~input ~filter ~output () =
  (match config.engine with
  | Accel_config.Conv_engine -> ()
  | Accel_config.Matmul_engine _ -> failwith "Manual_conv: not a conv engine");
  let extent v d = List.nth v.Memref_view.shape d in
  let n = extent input 0 and ic = extent input 1 in
  let oc = extent filter 0 and fh = extent filter 2 and fw = extent filter 3 in
  let oh = extent output 2 and ow = extent output 3 in
  if extent filter 1 <> ic || extent output 0 <> n || extent output 1 <> oc then
    failwith "Manual_conv: operand shape mismatch";
  if fh <> fw then failwith "Manual_conv: the engine supports square filters only";
  if ic * fh * fw > config.buffer_capacity_elems then
    failwith "Manual_conv: slice exceeds the engine's buffer capacity";
  let lib = Dma_library.init soc ~dma_id:config.dma.dma_id ~strategy:Dma_library.Specialized in
  (* reset + configuration *)
  Dma_library.send_reset lib;
  Dma_library.send_literals lib [ Isa.cv_set_fhw; fh ];
  Dma_library.send_literals lib [ Isa.cv_set_ic; ic ];
  let send_tile lit view =
    Soc.alu soc 6;
    let offset = Dma_library.stage_literal lib lit ~offset:0 in
    ignore
      (Dma_library.copy_to_dma_region_with lib (Dma_library.manual_strategy view) view
         ~offset);
    Dma_library.flush_send lib
  in
  let recv_tile view =
    Soc.alu soc 6;
    ignore (Dma_library.stage_literal lib Isa.cv_drain ~offset:0);
    Dma_library.recv_into lib ~strategy:(Dma_library.manual_strategy view) view
      ~accumulate:true
  in
  let w_slice f =
    Memref_view.subview filter ~offsets:[ f; 0; 0; 0 ] ~sizes:[ 1; ic; fh; fw ]
  in
  let patch b y x =
    Memref_view.subview input
      ~offsets:[ b; 0; stride * y; stride * x ]
      ~sizes:[ 1; ic; fh; fw ]
  in
  let out_pixel b f y x =
    Memref_view.subview output ~offsets:[ b; f; y; x ] ~sizes:[ 1; 1; 1; 1 ]
  in
  let out_slice b f =
    Memref_view.subview output ~offsets:[ b; f; 0; 0 ] ~sizes:[ 1; 1; oh; ow ]
  in
  let out_row b f y =
    Memref_view.subview output ~offsets:[ b; f; y; 0 ] ~sizes:[ 1; 1; 1; ow ]
  in
  (match flow with
  | "Rs" ->
    (* weights stationary, one drain per output row — the natural
       hand-optimised batching *)
    Soc.loop soc oc (fun f ->
        send_tile Isa.cv_load_w (w_slice f);
        Soc.loop soc n (fun b ->
            Soc.loop soc oh (fun y ->
                Soc.loop soc ow (fun x -> send_tile Isa.cv_patch (patch b y x));
                recv_tile (out_row b f y))))
  | "Ws" ->
    Soc.loop soc oc (fun f ->
        send_tile Isa.cv_load_w (w_slice f);
        Soc.loop soc n (fun b ->
            Soc.loop soc oh (fun y ->
                Soc.loop soc ow (fun x ->
                    send_tile Isa.cv_patch (patch b y x);
                    recv_tile (out_pixel b f y x)))))
  | "Os" ->
    Soc.loop soc oc (fun f ->
        send_tile Isa.cv_load_w (w_slice f);
        Soc.loop soc n (fun b ->
            Soc.loop soc oh (fun y ->
                Soc.loop soc ow (fun x -> send_tile Isa.cv_patch (patch b y x)));
            recv_tile (out_slice b f)))
  | other -> failwith (Printf.sprintf "Manual_conv: unknown flow %s" other));
  Dma_library.free lib
