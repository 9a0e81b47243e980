module Random_joins = Mmfair_layering.Random_joins

type point = { receivers : int; expected : float; simulated : float option }
type curve = { label : string; points : point list }

(* Log-spaced receiver counts 1..100 (the figure's x-axis). *)
let receiver_counts = [ 1; 2; 3; 5; 7; 10; 15; 20; 30; 50; 70; 100 ]

let run ?(simulate = false) ?(seed = 7L) () =
  let rng = Mmfair_prng.Xoshiro.create ~seed () in
  List.map
    (fun config ->
      let points =
        List.map
          (fun receivers ->
            let expected = Random_joins.figure5_point config ~receivers in
            let simulated =
              if not simulate then None
              else begin
                let rates = Array.init receivers config.Random_joins.rate_of in
                Some
                  (Random_joins.simulate_redundancy ~rng ~packets_per_quantum:1000 ~quanta:200
                     ~rates)
              end
            in
            { receivers; expected; simulated })
          receiver_counts
      in
      { label = config.Random_joins.label; points })
    Random_joins.figure5_configs

let to_table curves =
  let columns =
    "receivers"
    :: List.concat_map
         (fun c ->
           match c.points with
           | { simulated = Some _; _ } :: _ -> [ c.label; c.label ^ " (sim)" ]
           | _ -> [ c.label ])
         curves
  in
  let rows =
    List.map
      (fun receivers ->
        string_of_int receivers
        :: List.concat_map
             (fun c ->
               let p = List.find (fun p -> p.receivers = receivers) c.points in
               Table.cell_f p.expected
               :: (match p.simulated with Some s -> [ Table.cell_f s ] | None -> []))
             curves)
      receiver_counts
  in
  Table.make ~title:"Figure 5: redundancy of a single layer with random joins"
    ~columns
    ~notes:
      [
        "paper: redundancy grows with receiver count toward lambda/max-rate (10 for the 0.1 curves);";
        "equal-rate receiver populations climb fastest.";
      ]
    rows

let asymptote ~label =
  let config =
    List.find
      (fun c -> c.Random_joins.label = label)
      Random_joins.figure5_configs
  in
  (* The supremum over any receiver population is lambda over the peak
     rate, which the first receiver attains in every paper config. *)
  1.0 /. config.Random_joins.rate_of 0
