(* The one timed sample scaling.exe, churn.exe and main.exe build
   their best-of estimates from, and that estimate.  A sample runs with the null
   probe sink installed, whatever the surrounding bench plumbing does:
   the committed numbers are the telemetry-disabled baseline that CI's
   overhead gate compares against.

   Monotonic: an NTP step mid sample must not record negative or
   skewed durations and trip (or mask) the overhead/speedup gates.
   Wall time is fine only for metadata. *)

module Obs = Mmfair_obs

(* Repeat [f] until [min_time] seconds have passed; the per-run average
   in ns and the run count behind it. *)
let one_sample ~min_time f =
  Obs.Probe.with_sink Obs.Sink.null @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let runs = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    ignore (f ());
    incr runs;
    elapsed := Obs.Clock.since_s t0
  done;
  (!elapsed /. float_of_int !runs *. 1e9, !runs)

let best_of = 3

type best = { ns : float; runs : int; samples_ns : float list }
(* [ns] is the best (minimum) of the sample averages; [runs] is the
   run count behind that best sample. *)

(* Three untimed warm-up runs, under the null sink like the samples,
   then the best of [samples] (default [best_of]) samples. *)
let best ?(samples = best_of) ~min_time f =
  Obs.Probe.with_sink Obs.Sink.null (fun () ->
      for _ = 1 to 3 do
        ignore (f ())
      done);
  let samples = List.init samples (fun _ -> one_sample ~min_time f) in
  let ns, runs =
    List.fold_left (fun (bns, bruns) (ns, runs) -> if ns < bns then (ns, runs) else (bns, bruns))
      (infinity, 0) samples
  in
  { ns; runs; samples_ns = List.map fst samples }
