type 'a t = { queue : 'a Event_queue.t; mutable clock : float }

let create () = { queue = Event_queue.create (); clock = 0.0 }

let now t = t.clock

let schedule t ~delay ev =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Engine.schedule: bad delay";
  Event_queue.add t.queue ~time:(t.clock +. delay) ev

let schedule_at t ~time ev =
  if Float.is_nan time || time < t.clock then invalid_arg "Engine.schedule_at: time precedes now";
  Event_queue.add t.queue ~time ev

type control = Continue | Stop

let run ?(until = infinity) t ~handler =
  let continue = ref true in
  while !continue do
    match Event_queue.peek t.queue with
    | None -> continue := false
    | Some (time, _) when time > until ->
        t.clock <- until;
        continue := false
    | Some _ -> (
        match Event_queue.pop t.queue with
        | None -> continue := false
        | Some (time, payload) -> (
            t.clock <- time;
            if Mmfair_obs.Probe.enabled () then
              Mmfair_obs.Probe.sim
                (Mmfair_obs.Events.Fired { time; depth = Event_queue.size t.queue });
            match handler time payload with Continue -> () | Stop -> continue := false))
  done
