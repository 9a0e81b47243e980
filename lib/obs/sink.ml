type t = {
  enabled : bool;
  on_round : Events.round -> unit;
  on_epoch : Events.epoch -> unit;
  on_pool : Events.pool -> unit;
  on_sim : Events.sim -> unit;
  on_span_begin : string -> unit;
  on_span_end : string -> unit;
}

let null =
  {
    enabled = false;
    on_round = ignore;
    on_epoch = ignore;
    on_pool = ignore;
    on_sim = ignore;
    on_span_begin = ignore;
    on_span_end = ignore;
  }

let make ?(on_round = ignore) ?(on_epoch = ignore) ?(on_pool = ignore) ?(on_sim = ignore)
    ?(on_span_begin = ignore) ?(on_span_end = ignore) () =
  {
    enabled = true;
    on_round;
    on_epoch;
    on_pool;
    on_sim;
    on_span_begin;
    on_span_end;
  }

let tee a b =
  match (a.enabled, b.enabled) with
  | false, false -> null
  | true, false -> a
  | false, true -> b
  | true, true ->
      {
        enabled = true;
        on_round =
          (fun ev ->
            a.on_round ev;
            b.on_round ev);
        on_epoch =
          (fun ev ->
            a.on_epoch ev;
            b.on_epoch ev);
        on_pool =
          (fun ev ->
            a.on_pool ev;
            b.on_pool ev);
        on_sim =
          (fun ev ->
            a.on_sim ev;
            b.on_sim ev);
        on_span_begin =
          (fun name ->
            a.on_span_begin name;
            b.on_span_begin name);
        on_span_end =
          (fun name ->
            a.on_span_end name;
            b.on_span_end name);
      }

let tee_all sinks = List.fold_left tee null sinks
