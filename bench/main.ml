(* The benchmark binary regenerates every table and figure of the
   paper's evaluation (the E1–E10 index in DESIGN.md §4). By default it
   prints the paper-style series and then runs one Bechamel
   micro-benchmark per experiment measuring the wall-clock cost of the
   corresponding simulation harness. With --json it instead writes the
   whole run as one udma-bench/1 document (BENCH_udma.json), and with
   --check FILE it reads every entry of the [anchors] table below out
   of this run and out of a previously committed baseline, failing on
   >±2 % drift, and compares E17's deterministic engine columns
   exactly — that is the CI regression gate. *)

module Runner = Udma_workloads.Runner
module Report = Udma_obs.Report
module Json = Udma_obs.Json

open Bechamel
open Toolkit

module Load_gen = Udma_traffic.Load_gen

(* Small parameterisations so each Bechamel sample is a fraction of a
   second; the printed paper series above use the full parameters. *)
let small (cfg : Load_gen.config) =
  { cfg with nodes = 4; warmup_cycles = 500; window_cycles = 4_000 }

let bech_tests =
  [
    Test.make ~name:"e1_figure8_point"
      (Staged.stage (fun () ->
           ignore (Runner.figure8 ~sizes:[ 512; 4096 ] ~messages:4 ())));
    Test.make ~name:"e2_initiation"
      (Staged.stage (fun () -> ignore (Runner.initiation_costs ())));
    Test.make ~name:"e3_hippi"
      (Staged.stage (fun () ->
           ignore (Runner.hippi_motivation ~blocks:[ 1024; 65536 ] ())));
    Test.make ~name:"e4_pio_crossover"
      (Staged.stage (fun () ->
           ignore (Runner.pio_crossover ~sizes:[ 64; 1024 ] ~trials:2 ())));
    Test.make ~name:"e5_queueing"
      (Staged.stage (fun () ->
           ignore (Runner.queueing ~total_sizes:[ 16384 ] ~depths:[ 4 ] ())));
    Test.make ~name:"e6_atomicity"
      (Staged.stage (fun () ->
           ignore (Runner.atomicity ~probs_pct:[ 10 ] ~transfers:20 ())));
    Test.make ~name:"e7_pinning"
      (Staged.stage (fun () -> ignore (Runner.pinning_vs_i4 ())));
    Test.make ~name:"e8_proxy_fault"
      (Staged.stage (fun () -> ignore (Runner.proxy_fault_costs ())));
    Test.make ~name:"e9_i3_policy"
      (Staged.stage (fun () ->
           ignore (Runner.i3_policies ~transfers:8 ~pages:2 ())));
    Test.make ~name:"e10_updates"
      (Staged.stage (fun () -> ignore (Runner.update_strategies ())));
    Test.make ~name:"e11_traffic_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.report_saturation ~loads:[ 0.5 ]
                (small Load_gen.default_config))));
    Test.make ~name:"e12_adaptive_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.report_adaptive ~loads:[ 0.5 ]
                ~patterns:[ Udma_traffic.Pattern.Transpose ]
                (small Runner.adaptive_regime))));
    Test.make ~name:"e13_hotspot_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.report_hotspot ~loads:[ 0.5 ] ~pcts:[ 50 ]
                ~vc_counts:[ 2 ] (small Runner.hotspot_regime))));
    Test.make ~name:"e14_tenants_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.report_tenants ~tenant_counts:[ 64 ]
                { Udma_protect.Tenants.default_config with ops = 2_000 })));
    Test.make ~name:"e15_shapes_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.transfer_shapes
                ~cases:[ Runner.Shape_contig; Runner.Shape_sg 16 ]
                ())));
    Test.make ~name:"e16_apps_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.report_kv ~loads:[ 0.5 ]
                {
                  Udma_app.Kv.default_config with
                  fabric = { Udma_app.Fabric.default_config with nodes = 4 };
                  shards = 4;
                  window_cycles = 10_000;
                })));
    Test.make ~name:"e18_flit_point"
      (Staged.stage (fun () ->
           ignore
             (Runner.report_flit ~vc_counts:[ 2 ] (small Runner.flit_regime))));
  ]

let run_bechamel () =
  Printf.printf "\n=== Bechamel micro-benchmarks (host wall-clock per harness run) ===\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"udma" bech_tests)
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-28s %16s\n" "harness" "ns/run";
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %16.0f\n" name ns)
    rows

(* ------------------------------------------------------------------ *)
(* anchors: the quantitative claims CI guards against drift            *)
(* ------------------------------------------------------------------ *)

(* Lookups over a udma-bench/1 document: the one shape both the
   committed baseline and the current run (through Report.bench_json,
   the serializer that wrote the baseline) are read in. *)
let list_field k v =
  match Json.member k v with Some l -> Json.to_list l | None -> []

let experiment id doc =
  List.find_opt
    (fun e -> Json.member "id" e = Some (Json.Str id))
    (list_field "experiments" doc)

let rows_of id doc =
  Option.fold ~none:[] ~some:(list_field "rows") (experiment id doc)

let num field v = Option.bind (Json.member field v) Json.number
let num_is field x row = num field row = Some x
let str_is field s row = Json.member field row = Some (Json.Str s)

(* [field] of the first row of experiment [id] that satisfies [where]
   and has a numeric [field]. *)
let row_value id ~where field doc =
  List.find_map
    (fun row -> if where row then num field row else None)
    (rows_of id doc)

let meta_value id field doc =
  Option.bind (experiment id doc) (fun e ->
      Option.bind (Json.member "meta" e) (num field))

(* The checked anchors, by name: the paper's 51 % of peak at 512 B and
   96 % at 4 KB (Figure 8), the ~200-cycle two-reference initiation
   (§8), then the knees, tails and bandwidths of E11-E18 built on
   them. *)
let anchors =
  let e13 vcs =
    row_value "e13_hotspot"
      ~where:(fun r -> num_is "hot_pct" 50.0 r && num_is "vcs" vcs r)
      "knee"
  in
  let e14 backend tenants field =
    row_value "e14_tenants"
      ~where:(fun r -> str_is "backend" backend r && num_is "tenants" tenants r)
      field
  in
  [
    ("e1.pct_of_max@512B",
     row_value "e1_figure8" ~where:(num_is "size" 512.0) "pct_of_max");
    ("e1.pct_of_max@4KB",
     row_value "e1_figure8" ~where:(num_is "size" 4096.0) "pct_of_max");
    ("e2.initiation_cycles",
     row_value "e2_initiation"
       ~where:(str_is "label" "UDMA initiation (2 refs + check)")
       "cycles");
    ("e11.knee_load", meta_value "e11_saturation" "knee_load");
    ("e11.mean_latency@0.2",
     row_value "e11_saturation" ~where:(num_is "load" 0.2) "mean_latency");
    ("e12.knee_dim@transpose",
     row_value "e12_adaptive" ~where:(str_is "pattern" "transpose") "knee_dim");
    ("e12.knee_adaptive@transpose",
     row_value "e12_adaptive" ~where:(str_is "pattern" "transpose")
       "knee_adaptive");
    ("e13.knee@hot50.vcs1", e13 1.0);
    ("e13.knee@hot50.vcs4", e13 4.0);
    ("e14.p50@proxy.t8", e14 "proxy" 8.0 "p50");
    ("e14.p99@proxy.t256", e14 "proxy" 256.0 "p99");
    ("e14.p50@iommu.t8", e14 "iommu" 8.0 "p50");
    ("e14.p99@iommu.t256", e14 "iommu" 256.0 "p99");
    ("e14.p50@capability.t8", e14 "capability" 8.0 "p50");
    ("e14.p99@capability.t256", e14 "capability" 256.0 "p99");
    ("e15.bpc@contig.basic",
     row_value "e15_shapes" ~where:(str_is "shape" "contig") "basic_bpc");
    ("e15.bpc@sg256.basic",
     row_value "e15_shapes" ~where:(str_is "shape" "sg256") "basic_bpc");
    ("e15.pct@sg256.basic",
     row_value "e15_shapes" ~where:(str_is "shape" "sg256") "basic_pct");
    ("e16.kv_p99@0.8", row_value "e16_kv" ~where:(num_is "load" 0.8) "p99");
    ("e16.rpc_p99@0.8", row_value "e16_rpc" ~where:(num_is "load" 0.8) "p99");
    ("e18.hol_delta@vcs1",
     row_value "e18_flit" ~where:(num_is "vcs" 1.0) "hol_delta");
    ("e18.hol_delta@vcs4",
     row_value "e18_flit" ~where:(num_is "vcs" 4.0) "hol_delta");
  ]

let read_baseline ~who file =
  let ic = open_in file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Ok doc -> doc
  | Error msg ->
      Printf.eprintf "%s: cannot parse %s: %s\n" who file msg;
      exit 2

(* E17's engine counters and traffic result are the same on every host
   and for every domain count, so they are compared exactly, row by row
   per domain count; the wall-clock columns are never gated. *)
let e17_exact_fields =
  [ "events"; "windows"; "cross_posts"; "shards"; "injected"; "delivered";
    "mean_latency"; "p99_latency" ]

let check_e17 ~current ~baseline ~failed =
  let show = function Some v -> Printf.sprintf "%.17g" v | None -> "-" in
  let base_rows = rows_of "e17_simscale" baseline in
  let rows = rows_of "e17_simscale" current in
  if rows = [] then begin
    failed := true;
    Printf.printf "e17_simscale missing from current run\n"
  end;
  List.iter
    (fun row ->
      let domains = num "domains" row in
      match List.find_opt (fun b -> num "domains" b = domains) base_rows with
      | None ->
          failed := true;
          Printf.printf "e17 domains=%s missing from baseline file\n"
            (show domains)
      | Some base ->
          List.iter
            (fun field ->
              let cur = num field row and ref_ = num field base in
              let ok = cur <> None && cur = ref_ in
              if not ok then failed := true;
              Printf.printf
                "e17 domains=%s %-13s baseline %20s  current %20s  %s\n"
                (show domains) field (show ref_) (show cur)
                (if ok then "ok" else "MISMATCH"))
            e17_exact_fields)
    rows

let check_anchors reports ~baseline_file =
  let doc = read_baseline ~who:"check" baseline_file in
  let current = Report.bench_json reports in
  let tolerance = 0.02 in
  Printf.printf "\n=== anchor check vs %s (tolerance +/-%.0f%%) ===\n"
    baseline_file (100.0 *. tolerance);
  let failed = ref false in
  List.iter
    (fun (name, value) ->
      match (value current, value doc) with
      | Some cur, Some base ->
          let drift =
            if base = 0.0 then Float.abs cur
            else Float.abs (cur -. base) /. Float.abs base
          in
          let ok = drift <= tolerance in
          if not ok then failed := true;
          Printf.printf "%-24s baseline %10.2f  current %10.2f  drift %5.1f%%  %s\n"
            name base cur (100.0 *. drift)
            (if ok then "ok" else "DRIFT")
      | _, None ->
          failed := true;
          Printf.printf "%-24s missing from baseline file\n" name
      | None, _ ->
          failed := true;
          Printf.printf "%-24s missing from current run\n" name)
    anchors;
  Printf.printf "\n=== E17 engine determinism vs %s (exact) ===\n"
    baseline_file;
  check_e17 ~current ~baseline:doc ~failed;
  if !failed then begin
    Printf.printf
      "anchor check FAILED: regenerate the baseline (see EXPERIMENTS.md) if \
       the change is intended.\n";
    exit 1
  end
  else Printf.printf "anchor check passed.\n"

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let run json out quick seed check =
  let reports = Runner.all_reports ~quick ~seed () in
  if json then begin
    let path = Option.value out ~default:"BENCH_udma.json" in
    let doc =
      Report.bench_json
        ~meta:
          [
            ("generator", Report.Str "bench");
            ("quick", Report.Bool quick);
            ("seed", Report.Int seed);
          ]
        reports
    in
    let oc = open_out path in
    output_string oc (Json.to_string ~indent:2 doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s (%d experiments)\n" path (List.length reports)
  end
  else begin
    Printf.printf
      "Reproduction of: Blumrich, Dubnicki, Felten, Li — \"Protected, \
       User-Level DMA for the SHRIMP Network Interface\" (HPCA 1996)\n";
    Printf.printf
      "Every series below corresponds to a table/figure or quantitative \
       claim of the paper; see DESIGN.md section 4 and EXPERIMENTS.md.\n";
    List.iter Report.print reports
  end;
  (match check with
  | Some baseline_file -> check_anchors reports ~baseline_file
  | None -> ());
  (* the wall-clock micro-benchmarks only make sense in the default
     full table mode *)
  if (not json) && (not quick) && check = None then begin
    run_bechamel ();
    Printf.printf "\nDone.\n"
  end

let () =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Write the whole run as one udma-bench/1 JSON document \
                (default BENCH_udma.json) instead of printing tables.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Destination for --json output.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Small deterministic parameter set (what CI uses for the \
                committed BENCH_baseline.json).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the randomized experiments.")
  in
  let check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:"Diff the paper anchors of this run (the $(b,anchors) table \
                in bench/main.ml) against the baseline document $(docv) and \
                compare E17's deterministic engine columns exactly; exit 1 \
                on >±2% anchor drift or any E17 mismatch.")
  in
  let default_term = Term.(const run $ json $ out $ quick $ seed $ check) in
  let info =
    Cmd.info "bench" ~version:"1.0.0"
      ~doc:"Regenerate the paper's evaluation; emit/check JSON reports."
  in
  exit (Cmd.eval (Cmd.v info default_term))
