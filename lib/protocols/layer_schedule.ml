module Scheme = Mmfair_layering.Scheme
module Xoshiro = Mmfair_prng.Xoshiro

type mode = Wrr | Random

type t = {
  mode : mode;
  rates : float array; (* rates.(l-1) = rate of layer l *)
  total : float;
  credits : float array;
}

let create ?(mode = Wrr) scheme =
  let m = Scheme.layers scheme in
  let rates = Array.init m (fun i -> Scheme.layer_rate scheme (i + 1)) in
  { mode; rates; total = Scheme.top_rate scheme; credits = Array.make m 0.0 }

let mode t = t.mode

let next t ~rng =
  match t.mode with
  | Random ->
      let x = Xoshiro.uniform rng 0.0 t.total in
      let rec find l acc =
        if l = Array.length t.rates - 1 then l
        else begin
          let acc = acc +. t.rates.(l) in
          if x < acc then l else find (l + 1) acc
        end
      in
      find 0 0.0 + 1
  | Wrr ->
      (* Smooth WRR: add each layer's rate to its credit, emit the
         layer with the largest credit, charge it the total rate. *)
      let best = ref 0 in
      Array.iteri
        (fun i r ->
          t.credits.(i) <- t.credits.(i) +. r;
          if t.credits.(i) > t.credits.(!best) then best := i)
        t.rates;
      t.credits.(!best) <- t.credits.(!best) -. t.total;
      !best + 1

let share t l =
  if l < 1 || l > Array.length t.rates then invalid_arg "Layer_schedule.share: layer out of range";
  t.rates.(l - 1) /. t.total

let reset t = Array.fill t.credits 0 (Array.length t.credits) 0.0
