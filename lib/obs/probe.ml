(* The installed sink is domain-local: each domain starts at
   [Sink.null], so worker domains spawned by a pool never observe (or
   race on) the main domain's sink.  Pools that want worker telemetry
   install a buffering sink inside the worker and flush on join
   (Mmfair_core.Domain_pool).  Within one domain this behaves exactly
   like the previous plain [ref]. *)
let key = Domain.DLS.new_key (fun () -> Sink.null)

let get () = Domain.DLS.get key
let set s = Domain.DLS.set key s
let enabled () = (Domain.DLS.get key).Sink.enabled

let with_sink s f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let rounds f =
  let acc = ref [] in
  let x = with_sink (Sink.tee (get ()) (Sink.make ~on_round:(fun ev -> acc := ev :: !acc) ())) f in
  (x, List.rev !acc)

let round ev =
  let s = Domain.DLS.get key in
  if s.Sink.enabled then s.Sink.on_round ev

let epoch ev =
  let s = Domain.DLS.get key in
  if s.Sink.enabled then s.Sink.on_epoch ev

let pool ev =
  let s = Domain.DLS.get key in
  if s.Sink.enabled then s.Sink.on_pool ev

let sim ev =
  let s = Domain.DLS.get key in
  if s.Sink.enabled then s.Sink.on_sim ev

let span_begin name =
  let s = Domain.DLS.get key in
  if s.Sink.enabled then s.Sink.on_span_begin name

let span_end name =
  let s = Domain.DLS.get key in
  if s.Sink.enabled then s.Sink.on_span_end name

let span name f =
  let s = Domain.DLS.get key in
  if not s.Sink.enabled then f ()
  else begin
    s.Sink.on_span_begin name;
    Fun.protect ~finally:(fun () -> span_end name) f
  end
