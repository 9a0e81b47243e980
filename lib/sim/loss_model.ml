module Xoshiro = Mmfair_prng.Xoshiro

type link_state = {
  p : float;
  rng : Xoshiro.t;
  mutable samples : int;
  mutable losses : int;
}

type t = link_state array

let create ~rng ~links ~loss_rate =
  Array.init links (fun l ->
      let p = loss_rate l in
      if Float.is_nan p || p < 0.0 || p > 1.0 then
        invalid_arg (Printf.sprintf "Loss_model.create: loss rate of link %d outside [0,1]" l);
      { p; rng = Xoshiro.split rng; samples = 0; losses = 0 })

let check t l name =
  if l < 0 || l >= Array.length t then invalid_arg (Printf.sprintf "Loss_model.%s: unknown link" name)

let drops t l =
  check t l "drops";
  let s = t.(l) in
  s.samples <- s.samples + 1;
  let lost = Xoshiro.bernoulli s.rng s.p in
  if lost then s.losses <- s.losses + 1;
  lost

let drops_scaled t l ~scale =
  check t l "drops_scaled";
  if Float.is_nan scale || scale < 0.0 then invalid_arg "Loss_model.drops_scaled: bad scale";
  let s = t.(l) in
  s.samples <- s.samples + 1;
  let p = Stdlib.min 1.0 (s.p *. scale) in
  let lost = Xoshiro.bernoulli s.rng p in
  if lost then s.losses <- s.losses + 1;
  lost

let samples t l =
  check t l "samples";
  t.(l).samples

let observed_losses t l =
  check t l "observed_losses";
  t.(l).losses
