type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let of_state s =
  if Array.length s <> 4 then invalid_arg "Xoshiro.of_state: need 4 words";
  if s.(0) = 0L && s.(1) = 0L && s.(2) = 0L && s.(3) = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state is absorbing";
  { s0 = s.(0); s1 = s.(1); s2 = s.(2); s3 = s.(3) }

let create ?(seed = 0x123456789ABCDEF0L) () =
  let sm = Splitmix64.create seed in
  of_state [| Splitmix64.next sm; Splitmix64.next sm; Splitmix64.next sm; Splitmix64.next sm |]


let next t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = next t in
  let sm = Splitmix64.create seed in
  of_state [| Splitmix64.next sm; Splitmix64.next sm; Splitmix64.next sm; Splitmix64.next sm |]

let float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let below t n =
  if n <= 0 then invalid_arg "Xoshiro.below: n must be positive";
  let n64 = Int64.of_int n in
  let rec go () =
    let bits = Int64.shift_right_logical (next t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.compare (Int64.sub bits v) (Int64.sub (Int64.sub Int64.max_int n64) 1L) > 0
    then go ()
    else Int64.to_int v
  in
  go ()

let bool t = Int64.compare (next t) 0L < 0

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t < p

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Xoshiro.exponential: rate must be positive";
  (* 1 − u avoids log 0 since float is in [0, 1). *)
  -.log (1.0 -. float t) /. rate

let pareto_bounded t ~alpha ~lo ~hi =
  if not (Float.is_finite alpha && alpha > 0.0) then
    invalid_arg "Xoshiro.pareto_bounded: alpha must be finite and positive";
  if not (Float.is_finite lo && Float.is_finite hi && 0.0 < lo && lo < hi) then
    invalid_arg "Xoshiro.pareto_bounded: need finite 0 < lo < hi";
  (* Inverse CDF of the bounded Pareto: F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a)
     on [lo, hi].  u < 1, so the denominator of the inner power never
     reaches the (lo/hi)^a singularity that would send x to hi exactly;
     a final clamp guards float rounding anyway. *)
  let u = float t in
  let ratio_a = (lo /. hi) ** alpha in
  let x = lo /. ((1.0 -. (u *. (1.0 -. ratio_a))) ** (1.0 /. alpha)) in
  if x < lo then lo else if x >= hi then Float.pred hi else x

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Xoshiro.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Xoshiro.pick: empty array";
  a.(below t (Array.length a))
