(* The tensor kernels against their oracle.

   test/oracle.ml holds the bit-identity oracle: plain [float array] loops
   that replay the pre-kernel code's operations in its order.  Every Tensor
   operation must return the oracle's bits, NaN payloads and signed zeros
   included.  Each check is written once against [OPS], the operations both
   sides provide, and run on the oracle ([Or]) and on the Tensor C kernels
   ([Tc]) from the same inputs; the special-value digests pin both sides
   to the same frozen bits, so neither can drift alone. *)

module T = Tensor

(* A tensor as the oracle sees it: a shape and its row-major data.  Inputs
   are built as these, and each side makes its own copy. *)
type ot = { r : int; c : int; d : float array }

module type OPS = sig
  type t

  val of_ot : ot -> t
  val to_array : t -> float array
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val scale : float -> t -> t
  val add_scalar : float -> t -> t
  val map : (float -> float) -> t -> t
  val add_rowvec : t -> t -> t
  val mul_rowvec : t -> t -> t
  val matmul : t -> t -> t
  val matmul_nt : t -> t -> t
  val transpose : t -> t
  val sum : t -> float
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float
  val sum_rows : t -> t
  val dot : t -> t -> float
  val argmax_rows : t -> int array
  val softmax_rows : t -> t
  val ce_loss_sum : t -> t -> float
  val unop : T.unop -> t -> t
  val unop_bwd : T.unop -> x:t -> y:t -> g:t -> t

  val ptanh : eta:t -> t -> t * t
  (** [(h, out)]. *)

  val ptanh_bwd : eta:t -> t -> h:t -> g:t -> t * t
  (** [(dv, deta)]. *)

  val crossbar : want_dx:bool -> x:t -> eta:t -> cond:t -> g:t -> t list * t list
  (** The forward's outputs (h, inv(x), the numerator, the output), then
      the backward's (the numerator's gradient, x's, η's, the
      conductances'); without [want_dx], x's share is the ones it started
      as. *)

  val dense : ?op:T.unop -> t -> t -> t -> t * t
  (** The dense-layer forward [(pre, out)]; without [op], [out] is [pre]. *)

  val blit_changed : src:t -> dst:t -> bool
  val sgd_step : lr:float -> grad:t -> t -> unit

  val adam_step :
    lr:float ->
    beta1:float ->
    beta2:float ->
    eps:float ->
    bc1:float ->
    bc2:float ->
    m:float array ->
    v:float array ->
    grad:t ->
    t ->
    unit
end

(* The oracle, given shapes. *)
module Or : OPS = struct
  module O = Oracle

  type t = ot

  let of_ot x = { x with d = Array.copy x.d }
  let to_array x = Array.copy x.d
  let zeros r c = { r; c; d = O.create (r * c) }
  let ones r c = { r; c; d = Array.make (r * c) 1.0 }
  let numel x = x.r * x.c

  let ew1 k a =
    let y = zeros a.r a.c in
    k a.d y.d (numel a);
    y

  let ew2 k a b =
    let y = zeros a.r a.c in
    k a.d b.d y.d (numel a);
    y

  let add = ew2 O.add
  let sub = ew2 O.sub
  let mul = ew2 O.mul
  let div = ew2 O.div
  let neg = ew1 O.neg
  let scale k = ew1 (O.scale k)
  let add_scalar k = ew1 (O.add_scalar k)
  let map f = ew1 (O.map f)

  let rowvec k m v =
    let y = zeros m.r m.c in
    k m.d v.d y.d m.r m.c;
    y

  let add_rowvec = rowvec O.add_rowvec
  let mul_rowvec = rowvec O.mul_rowvec

  let matmul a b =
    let y = zeros a.r b.c in
    O.matmul a.d b.d y.d a.r a.c b.c;
    y

  let matmul_nt a b =
    let y = zeros a.r b.r in
    O.matmul_nt a.d b.d y.d a.r a.c b.r;
    y

  let transpose a =
    let y = zeros a.c a.r in
    O.transpose a.d y.d a.r a.c;
    y

  let sum a = O.sum a.d (numel a)
  let mean a = sum a /. float_of_int (numel a)
  let min_value a = O.min_value a.d (numel a)
  let max_value a = O.max_value a.d (numel a)

  let sum_rows a =
    let y = zeros 1 a.c in
    O.sum_rows a.d y.d a.r a.c;
    y

  let dot a b = O.dot a.d b.d (numel a)
  let argmax_rows a = O.argmax_rows a.d a.r a.c

  let softmax_rows a =
    let y = zeros a.r a.c in
    O.softmax_rows a.d y.d a.r a.c;
    y

  let ce_loss_sum p y = O.ce_loss_sum p.d y.d (numel p)
  let unop op = ew1 (O.unary op)

  let unop_bwd op ~x ~y ~g =
    let s = zeros x.r x.c in
    O.unary_bwd op ~x:x.d ~y:y.d ~g:g.d ~s:s.d (numel x);
    s

  let ptanh ~eta v =
    let h = zeros v.r v.c and out = zeros v.r v.c in
    O.ptanh ~eta:eta.d ~v:v.d ~h:h.d ~out:out.d (numel v);
    (h, out)

  let ptanh_bwd ~eta v ~h ~g =
    let dv = zeros v.r v.c and deta = zeros 1 4 in
    O.ptanh_bwd ~eta:eta.d ~v:v.d ~h:h.d ~g:g.d ~dv:dv.d ~deta:deta.d (numel v);
    (dv, deta)

  let crossbar ~want_dx ~x ~eta ~cond ~g =
    let m = x.r and k = x.c and n = cond.c in
    let h = zeros m (k + 1) and inv_x = zeros m (k + 1) in
    let num = zeros m n and out = zeros m n in
    O.crossbar ~x:x.d ~eta:eta.d ~cond:cond.d ~h:h.d ~inv_x:inv_x.d ~num:num.d ~out:out.d m k
      n;
    let gnum = ones m n and dx = ones m k and deta = ones 1 4 and dcond = ones cond.r n in
    O.crossbar_bwd ~x:x.d ~eta:eta.d ~cond:cond.d ~h:h.d ~inv_x:inv_x.d ~num:num.d ~g:g.d
      ~gnum:gnum.d ~want_dx ~dx:dx.d ~deta:deta.d ~dcond:dcond.d m k n;
    ([ h; inv_x; num; out ], [ gnum; dx; deta; dcond ])

  let dense ?op x w b =
    let pre = add_rowvec (matmul x w) b in
    (pre, match op with Some u -> unop u pre | None -> pre)

  let blit_changed ~src ~dst = O.blit_changed src.d dst.d (numel src)
  let sgd_step ~lr ~grad value = O.sgd_step ~lr ~grad:grad.d ~value:value.d (numel value)

  let adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad value =
    O.adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad:grad.d ~value:value.d
      (numel value)
end

(* The Tensor kernels; destination-passing operations write into zeros. *)
module Tc : OPS with type t = T.t = struct
  type t = T.t

  let of_ot x = T.create x.r x.c x.d
  let to_array = T.to_array

  let into rows cols f =
    let d = T.zeros rows cols in
    f ~dst:d;
    d

  let add = T.add
  let sub = T.sub
  let mul = T.mul
  let div = T.div
  let neg = T.neg
  let scale = T.scale
  let add_scalar = T.add_scalar
  let map = T.map
  let add_rowvec = T.add_rowvec
  let mul_rowvec = T.mul_rowvec
  let matmul = T.matmul
  let matmul_nt a b = into (T.rows a) (T.rows b) (T.matmul_nt_into a b)
  let transpose a = into (T.cols a) (T.rows a) (T.transpose_into a)
  let sum = T.sum
  let mean = T.mean
  let min_value = T.min_value
  let max_value = T.max_value
  let sum_rows a = into 1 (T.cols a) (T.sum_rows_into a)
  let dot = T.dot
  let argmax_rows = T.argmax_rows
  let softmax_rows a = into (T.rows a) (T.cols a) (T.softmax_rows_into a)
  let ce_loss_sum = T.ce_loss_sum
  let unop op a = into (T.rows a) (T.cols a) (T.unop_into op a)
  let unop_bwd op ~x ~y ~g = into (T.rows x) (T.cols x) (T.unop_bwd_into op ~x ~y ~g)

  let ptanh ~eta v =
    let h = T.zeros (T.rows v) (T.cols v) in
    (h, into (T.rows v) (T.cols v) (T.ptanh_into ~eta v ~h))

  let ptanh_bwd ~eta v ~h ~g =
    let dv = T.zeros (T.rows v) (T.cols v) and deta = T.zeros 1 4 in
    T.ptanh_bwd_into ~eta v ~h ~g ~dv ~deta;
    (dv, deta)

  let crossbar ~want_dx ~x ~eta ~cond ~g =
    let m = T.rows x and k = T.cols x and n = T.cols cond in
    let h = T.zeros m (k + 1) and inv_x = T.zeros m (k + 1) in
    let num = T.zeros m n and out = T.zeros m n in
    T.crossbar_into ~x ~eta ~cond ~h ~inv_x ~num ~dst:out;
    let gnum = T.ones m n and dx = T.ones m k in
    let deta = T.ones 1 4 and dcond = T.ones (T.rows cond) n in
    T.crossbar_bwd_into ~x ~eta ~cond ~h ~inv_x ~num ~g ~gnum
      ~dx:(if want_dx then Some dx else None)
      ~deta ~dcond;
    ([ h; inv_x; num; out ], [ gnum; dx; deta; dcond ])

  let dense ?op x w b =
    let m = T.rows x and n = T.cols w in
    let pre = T.zeros m n in
    match op with
    | None ->
        T.matmul_bias_unop_into x w b ~pre ~out:pre;
        (pre, pre)
    | Some _ ->
        let out = T.zeros m n in
        T.matmul_bias_unop_into ?op x w b ~pre ~out;
        (pre, out)

  let blit_changed = T.blit_changed
  let sgd_step = T.sgd_step
  let adam_step = T.adam_step
end

(* {2 Inputs} *)

let ot r c f = { r; c; d = Array.init (r * c) (fun i -> f (i / c) (i mod c)) }
let ot_map f x = { x with d = Array.map f x.d }
let row_of x i = { r = 1; c = x.c; d = Array.sub x.d (i * x.c) x.c }

(* Deterministic "interesting" data: mixed signs and magnitudes, exact
   zeros, values spanning several binades. *)
let mk rows cols seed =
  ot rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 7919) in
      let h = (i * 2654435761) land 0xffff in
      (float_of_int h /. 655.36) -. 50.0)

(* Strictly positive variant for div denominators. *)
let mk_pos rows cols seed =
  ot rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 104729) in
      let h = (i * 2654435761) land 0xffff in
      (float_of_int h /. 6553.6) +. 0.125)

(* [mk]'s values carry at most 20 significant bits, so their short dot
   products are exact under every association and could not tell two
   associations apart; dividing by 3 fills the mantissa. *)
let mk_full rows cols seed = ot_map (fun x -> x /. 3.0) (mk rows cols seed)

let specials =
  [|
    0.0; -0.0; Float.nan; Int64.float_of_bits 0x7ff8000000000abcL;
    Int64.float_of_bits 0xfff0000000000123L; Float.infinity; Float.neg_infinity;
    4.9e-324; -2.2250738585072e-308; 1.0; -1.5; 3.0e300; -7.25e-3; 0.1;
  |]

(* Mostly ordinary values (so NaN does not swallow every row), with the
   specials and extra exact zeros sprinkled in by a hash of the index. *)
let mk_special rows cols seed =
  ot rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 7919) in
      let h = (i * 2654435761) land 0xffff in
      match h mod 7 with
      | 0 -> specials.(h / 7 mod Array.length specials)
      | 1 -> 0.0
      | _ -> (float_of_int h /. 655.36) -. 50.0)

(* [specials] plus NaNs of both signs and several payloads, signalling
   ones among them. *)
let nan_specials =
  Array.append specials
    [| -.Float.nan; Int64.float_of_bits 0x7ff0000000000456L; Int64.float_of_bits 0xfff8000000000defL |]

let base_eta = [| 0.1; 0.8; 0.3; 2.5 |]
let eta_with slot e = ot 1 4 (fun _ j -> if j = slot then e else base_eta.(j))

(* {2 Comparison} *)

let bits = Int64.bits_of_float

let check_bits ~what a b =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length %d vs %d" what (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      if not (Int64.equal (bits x) (bits y)) then
        Alcotest.failf "%s: index %d: %h vs %h (bitwise)" what i x y)
    a

(* Run [f] on the oracle and on the Tensor kernels and compare the bits. *)
let agree what (f : (module OPS) -> float array) =
  check_bits ~what (f (module Or)) (f (module Tc))

let fnv1a64_from seed a =
  Array.fold_left
    (fun h x ->
      let bits = Int64.bits_of_float x in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    seed a

let fnv1a64 = fnv1a64_from 0xcbf29ce484222325L

(* Run a digest table on the oracle and on the Tensor kernels: both must
   give the frozen list. *)
let check_digests what expected (f : (module OPS) -> string list) =
  Alcotest.(check (list string)) (what ^ " [oracle]") expected (f (module Or));
  Alcotest.(check (list string)) (what ^ " [tensor]") expected (f (module Tc))

(* {2 Test cases}

   Each kernel on each shape is a test case of its own, so a failure names
   every kernel and shape that disagrees, not only the first. *)

let case name f = Alcotest.test_case name `Quick f

(* [agree] as a test case named after what it checks. *)
let agree_case what f = case what (fun () -> agree what f)

(* {2 Both vector widths}

   The matmul kernels run their n ≥ 8 tiles, and the tanh kernels (unary
   tanh, ptanh, the crossbar's inv(x)) Fmath's array tanh, on 256-bit
   vectors where the CPU has AVX2 and on 128-bit vectors elsewhere, and
   both bodies must return the oracle's bits.  [at_both_widths] runs each case under the
   widest body the CPU has, keeping its name, and again under the 128-bit
   body, named with a "[128-bit]" suffix; on a CPU without AVX2 the two
   runs are the same. *)

let set_wide_tiles wide =
  (* pnnlint:allow R6 the test selects the C matmul and tanh bodies below the Tensor layer *)
  Kernels_c.set_wide_tiles wide

(* [set_wide_tiles true] restores the process default, the widest body the
   CPU has. *)
let with_tiles ~wide f =
  ignore (set_wide_tiles wide);
  Fun.protect ~finally:(fun () -> ignore (set_wide_tiles true)) f

let at_both_widths cases =
  List.concat_map
    (fun (name, speed, f) ->
      [
        (name, speed, fun () -> with_tiles ~wide:true f);
        (name ^ " [128-bit]", speed, fun () -> with_tiles ~wide:false f);
      ])
    cases

(* On an x86-64 Linux host whose CPU lists AVX2, the 256-bit body must be
   the one available (the stubs are built with GCC or Clang, whose vector
   extensions both bodies are written in). *)
let test_wide_tiles_on_avx2 () =
  let cpu_has_avx2 =
    Sys.file_exists "/proc/cpuinfo"
    && In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
       |> String.split_on_char '\n'
       |> List.exists (fun l ->
              String.starts_with ~prefix:"flags" l
              && List.mem "avx2" (String.split_on_char ' ' l))
  in
  let wide = set_wide_tiles true in
  if cpu_has_avx2 && Sys.word_size = 64 then
    Alcotest.(check bool) "AVX2 CPU runs the 256-bit body" true wide

(* {2 Agreement on ordinary data} *)

let shapes = [ (0, 0); (0, 3); (1, 1); (1, 7); (5, 1); (3, 4); (7, 5); (8, 8); (33, 17) ]

let elementwise_cases =
  List.concat_map
    (fun (r, c) ->
      let a = mk r c 1 and b = mk r c 2 in
      let ops =
        [
          ("add", fun (module M : OPS) -> M.(to_array (add (of_ot a) (of_ot b))));
          ("sub", fun (module M : OPS) -> M.(to_array (sub (of_ot a) (of_ot b))));
          ("mul", fun (module M : OPS) -> M.(to_array (mul (of_ot a) (of_ot b))));
          ("div", fun (module M : OPS) -> M.(to_array (div (of_ot a) (of_ot (mk_pos r c 2)))));
          ("neg", fun (module M : OPS) -> M.(to_array (neg (of_ot a))));
          ("scale", fun (module M : OPS) -> M.(to_array (scale 1.7 (of_ot a))));
          ("add_scalar", fun (module M : OPS) -> M.(to_array (add_scalar (-3.25) (of_ot a))));
          ("map", fun (module M : OPS) -> M.(to_array (map (fun x -> (x *. x) -. 1.0) (of_ot a))));
          ("transpose", fun (module M : OPS) -> M.(to_array (transpose (of_ot a))));
        ]
        @
        if r > 0 && c > 0 then
          let v = mk 1 c 2 in
          [
            ("add_rowvec", fun (module M : OPS) -> M.(to_array (add_rowvec (of_ot a) (of_ot v))));
            ("mul_rowvec", fun (module M : OPS) -> M.(to_array (mul_rowvec (of_ot a) (of_ot v))));
          ]
        else []
      in
      List.map (fun (op, f) -> agree_case (Printf.sprintf "%s %dx%d" op r c) f) ops)
    shapes

let reduction_cases =
  List.concat_map
    (fun (r, c) ->
      if r = 0 || c = 0 then []
      else
        let a = mk r c 1 and b = mk r c 2 in
        List.map
          (fun (op, f) -> agree_case (Printf.sprintf "%s %dx%d" op r c) f)
          [
            ("sum", fun (module M : OPS) -> [| M.(sum (of_ot a)) |]);
            ("mean", fun (module M : OPS) -> [| M.(mean (of_ot a)) |]);
            ("min_value", fun (module M : OPS) -> [| M.(min_value (of_ot a)) |]);
            ("max_value", fun (module M : OPS) -> [| M.(max_value (of_ot a)) |]);
            ("sum_rows", fun (module M : OPS) -> M.(to_array (sum_rows (of_ot a))));
            ("dot", fun (module M : OPS) -> [| M.(dot (of_ot a) (of_ot b)) |]);
            ( "argmax_rows",
              fun (module M : OPS) -> Array.map float_of_int M.(argmax_rows (of_ot a)) );
          ])
    shapes

(* n < 8 exercises the scalar remainder column loop; n = 8/16 the pure
   8-wide register tile; n = 9/17 tile + remainder.  Zero-sized operands
   must come out as (correctly-shaped) empties. *)
let matmul_triples =
  [
    (1, 1, 1); (2, 3, 4); (4, 4, 8); (3, 5, 9); (5, 7, 16); (6, 2, 17);
    (33, 17, 7); (8, 8, 8); (0, 3, 4); (3, 0, 4); (3, 4, 0);
  ]

let matmul_cases =
  List.concat_map
    (fun (m, k, n) ->
      let tag op = Printf.sprintf "%s %dx%dx%d" op m k n in
      [
        agree_case (tag "matmul") (fun (module M : OPS) ->
            M.(to_array (matmul (of_ot (mk m k 1)) (of_ot (mk k n 2)))));
        agree_case (tag "matmul_nt") (fun (module M : OPS) ->
            M.(to_array (matmul_nt (of_ot (mk m k 1)) (of_ot (mk n k 2)))));
      ])
    matmul_triples

let all_unops = [ T.Tanh; T.Sigmoid; T.Relu ]
let unop_name = function T.Tanh -> "tanh" | T.Sigmoid -> "sigmoid" | T.Relu -> "relu"

let training_cases =
  List.concat_map
    (fun op ->
      let x = mk 6 9 1 and g = mk 6 9 2 in
      [
        agree_case ("unop " ^ unop_name op) (fun (module M : OPS) ->
            M.(to_array (unop op (of_ot x))));
        agree_case ("unop_bwd " ^ unop_name op) (fun (module M : OPS) ->
            let x = M.of_ot x in
            M.(to_array (unop_bwd op ~x ~y:(unop op x) ~g:(of_ot g))));
      ])
    all_unops
  @ [
      agree_case "softmax_rows" (fun (module M : OPS) ->
          M.(to_array (softmax_rows (scale 0.1 (of_ot (mk 7 5 1))))));
      agree_case "ce_loss_sum" (fun (module M : OPS) ->
          let probs = M.(softmax_rows (scale 0.1 (of_ot (mk 7 5 1)))) in
          let labels = ot 7 5 (fun r c -> if c = r mod 5 then 1.0 else 0.0) in
          [| M.(ce_loss_sum probs (of_ot labels)) |]);
      agree_case "sgd_step" (fun (module M : OPS) ->
          let v = M.of_ot (mk 4 6 1) in
          M.(sgd_step ~lr:0.03 ~grad:(of_ot (mk 4 6 2)) v);
          M.to_array v);
      agree_case "adam_step" (fun (module M : OPS) ->
          let v = M.of_ot (mk 4 6 1) in
          let m = Array.make 24 0.01 and s = Array.make 24 0.02 in
          M.(adam_step ~lr:0.01 ~beta1:0.9 ~beta2:0.999 ~eps:1e-8 ~bc1:0.1 ~bc2:0.001 ~m ~v:s
               ~grad:(of_ot (mk 4 6 2)) v);
          Array.concat [ M.to_array v; m; s ]);
    ]

(* {2 Two-NaN operands}

   The per-element kernels promise the oracle's bits, NaN payloads and
   signs included; agreement on ordinary data cannot see which operand's
   NaN an instruction keeps.  [a] and [b] hold every ordered pair of
   [nan_specials] at the same index, the scalar-operand kernels (and each
   of ptanh's four η) run with every value as the scalar, and the backward
   kernels get [g = a] against [x = y = b]. *)

let two_nan_cases =
  let ns = Array.length nan_specials in
  let a = ot ns ns (fun i _ -> nan_specials.(i)) in
  let b = ot ns ns (fun _ j -> nan_specials.(j)) in
  let v = ot 1 ns (fun _ j -> nan_specials.(((j * 5) + 3) mod ns)) in
  (* one case per kernel, every value of [nan_specials] as the scalar *)
  let by_scalar name f =
    case (name ^ " by every special") (fun () ->
        Array.iter (fun k -> agree (Printf.sprintf "%s by %Lx" name (bits k)) (f k)) nan_specials)
  in
  [
    agree_case "add" (fun (module M : OPS) -> M.(to_array (add (of_ot a) (of_ot b))));
    agree_case "sub" (fun (module M : OPS) -> M.(to_array (sub (of_ot a) (of_ot b))));
    agree_case "mul" (fun (module M : OPS) -> M.(to_array (mul (of_ot a) (of_ot b))));
    agree_case "div" (fun (module M : OPS) -> M.(to_array (div (of_ot a) (of_ot b))));
    agree_case "neg" (fun (module M : OPS) -> M.(to_array (neg (of_ot a))));
    by_scalar "scale" (fun k (module M : OPS) -> M.(to_array (scale k (of_ot a))));
    by_scalar "add_scalar" (fun k (module M : OPS) -> M.(to_array (add_scalar k (of_ot a))));
    agree_case "add_rowvec" (fun (module M : OPS) -> M.(to_array (add_rowvec (of_ot a) (of_ot v))));
    agree_case "mul_rowvec" (fun (module M : OPS) -> M.(to_array (mul_rowvec (of_ot a) (of_ot v))));
    agree_case "sum_rows" (fun (module M : OPS) -> M.(to_array (sum_rows (of_ot a))));
    agree_case "sum_rows transposed" (fun (module M : OPS) -> M.(to_array (sum_rows (of_ot b))));
    agree_case "sum" (fun (module M : OPS) ->
        Array.init ns (fun i -> M.(sum (of_ot (row_of a i)))));
    agree_case "dot" (fun (module M : OPS) ->
        M.[| dot (of_ot a) (of_ot b); dot (of_ot b) (of_ot a) |]);
    agree_case "softmax_rows" (fun (module M : OPS) -> M.(to_array (softmax_rows (of_ot a))));
    agree_case "ce_loss_sum" (fun (module M : OPS) ->
        [| M.(ce_loss_sum (of_ot a) (of_ot (ot_map Float.abs b))) |]);
  ]
  @ List.init 4 (fun slot ->
        case (Printf.sprintf "ptanh eta.(%d) = every special" slot) (fun () ->
            Array.iter
              (fun e ->
                agree (Printf.sprintf "ptanh eta.(%d) = %Lx" slot (bits e)) (fun (module M : OPS) ->
                    let eta = M.of_ot (eta_with slot e) and v = M.of_ot a in
                    let h, out = M.ptanh ~eta v in
                    let dv, deta = M.ptanh_bwd ~eta v ~h ~g:(M.of_ot b) in
                    Array.concat (List.map M.to_array [ h; out; dv; deta ])))
              nan_specials))
  @ List.concat_map
      (fun op ->
        [
          agree_case ("unop " ^ unop_name op) (fun (module M : OPS) ->
              M.(to_array (unop op (of_ot a))));
          agree_case ("unop_bwd " ^ unop_name op) (fun (module M : OPS) ->
              M.(to_array (unop_bwd op ~x:(of_ot b) ~y:(of_ot b) ~g:(of_ot a))));
        ])
      all_unops

(* {2 The matmul family}

   The C matmul kernels vectorize in pure k order and recompute NaN
   outputs with the oracle's rules; every output must carry the oracle's
   bits.  Three sweeps:
   - [matmul_triples] on full-mantissa data (tiles, tile + remainder,
     remainder only, empties), where any re-association would show;
   - every shape of the special-value digest sweep below on [mk_special]
     data (signed zeros, NaN payloads, infinities, subnormals and extra
     exact zeros in both operands), one case per row count m;
   - square matrices over [nan_specials] whose output (i, j) multiplies
     value i by value j at k = 1, so each ordered pair meets once — exact
     zeros in A against ±inf and NaN in B among them — and whose longer k
     add NaN products of different payloads into a NaN accumulator.
   Each case runs [matmul], [matmul_nt] and the fused dense forward with
   and without tanh. *)

let matmul_family a b_kn b_nk v (module M : OPS) =
  let a = M.of_ot a and b_kn = M.of_ot b_kn and v = M.of_ot v in
  let pre, out = M.dense ~op:T.Tanh a b_kn v in
  let plain, _ = M.dense a b_kn v in
  [ M.matmul a b_kn; M.matmul_nt a (M.of_ot b_nk); pre; out; plain ]
  |> List.map M.to_array |> Array.concat

let sweep_rows = List.init 10 Fun.id

(* Every (k, n) of the sweep at m rows. *)
let special_sweep_at m f =
  for k = 0 to 20 do
    List.iter (fun n -> f m k n) [ 0; 1; 7; 8; 9; 15; 16; 17; 48; 65 ]
  done

let special_sweep f = List.iter (fun m -> special_sweep_at m f) sweep_rows

let matmul_oracle_cases =
  List.map
    (fun (m, k, n) ->
      agree_case (Printf.sprintf "full %dx%dx%d" m k n)
        (matmul_family (mk_full m k 1) (mk_full k n 2) (mk_full n k 3) (mk_full 1 n 4)))
    matmul_triples
  @ List.map
      (fun m ->
        case (Printf.sprintf "specials %dx*x*" m) (fun () ->
            special_sweep_at m (fun m k n ->
                agree (Printf.sprintf "specials %dx%dx%d" m k n)
                  (matmul_family (mk_special m k (m + k)) (mk_special k n (n + 3))
                     (mk_special n k (n + 5)) (mk_special 1 n 7)))))
      sweep_rows
  @
  let ns = Array.length nan_specials in
  let s i = nan_specials.(i mod ns) in
  List.map
    (fun k ->
      agree_case (Printf.sprintf "value pairs k=%d" k)
        (matmul_family
           (ot ns k (fun i p -> s (i + (3 * p))))
           (ot k ns (fun p j -> s (j + (5 * p))))
           (ot ns k (fun j p -> s (j + (5 * p))))
           (ot 1 ns (fun _ j -> s ((7 * j) + 1)))))
    [ 1; 2; 3; 8; 9 ]

(* {2 The crossbar pair}

   Every output of both kernels (h, inv(x), the numerator, the output; the
   numerator's gradient, x's, η's and the conductances') must carry the
   oracle's bits.  Shapes straddle the stub's four-row blocks (m = 1..9)
   and its 8-wide column tiles (n = 1, 3, 7 | 8 | 9, 17).  Three data sets:
   full mantissas, where any re-association would show; the same with
   signed zeros sprinkled in and nothing else special, which the C
   backward's plain body must get right on its own (a NaN output sends it
   to the pinned body); and [mk_special] (signed zeros, NaN payloads,
   infinities, subnormals and extra exact zeros in x, the conductances and
   the upstream gradient).  η is finite, or holds one of [nan_specials] in
   one slot, which reaches the bias column's once-per-call tanh. *)

let mk_signed_zeros rows cols seed scale =
  let full = mk_full rows cols seed in
  ot rows cols (fun r c ->
      let i = (r * cols) + c + (seed * 7919) in
      match i mod 5 with
      | 0 -> if i mod 2 = 0 then 0.0 else -0.0
      | _ -> full.d.((r * cols) + c) /. scale)

let crossbar_run ~want_dx x eta cond g (module M : OPS) =
  let fwd, bwd =
    M.crossbar ~want_dx ~x:(M.of_ot x) ~eta:(M.of_ot eta) ~cond:(M.of_ot cond) ~g:(M.of_ot g)
  in
  List.map M.to_array (fwd @ bwd) |> Array.concat

(* (m, k, n) in sweep order; case c (from 1) picks η's special slot and
   value and the seeds. *)
let crossbar_shapes =
  List.concat_map
    (fun m -> List.concat_map (fun n -> List.map (fun k -> (m, k, n)) [ 1; 4 ]) [ 1; 3; 7; 8; 9; 17 ])
    (List.init 9 (fun i -> i + 1))

let crossbar_cases =
  let ns = Array.length nan_specials in
  List.mapi
    (fun i (m, k, n) ->
      let c = i + 1 in
      let slot = c mod 5 in
      (* slot 4 matches no η entry: the base η *)
      let eta_tag = if slot = 4 then "finite eta" else Printf.sprintf "eta.(%d) special" slot in
      case (Printf.sprintf "crossbar %dx%dx%d %s" m k n eta_tag) (fun () ->
          let eta = eta_with slot nan_specials.(c mod ns) in
          let tag data = Printf.sprintf "crossbar %s %dx%dx%d %s" data m k n eta_tag in
          let rows = (2 * (k + 1)) + 1 in
          agree (tag "full")
            (crossbar_run ~want_dx:(c mod 2 = 0)
               (ot_map (fun v -> v /. 50.0) (mk_full m k c))
               eta
               (ot_map (fun v -> v /. 40.0) (mk_full rows n (c + 1)))
               (mk_full m n (c + 2)));
          agree (tag "signed zeros")
            (crossbar_run ~want_dx:true (mk_signed_zeros m k c 50.0) eta
               (mk_signed_zeros rows n (c + 1) 40.0)
               (mk_signed_zeros m n (c + 2) 1.0));
          agree (tag "specials")
            (crossbar_run ~want_dx:(c mod 2 = 1) (mk_special m k c) eta
               (mk_special rows n (c + 1))
               (mk_special m n (c + 2)))))
    crossbar_shapes
  (* A NaN that reaches x's share alone: θ⁺'s first row holds two NaN
     payloads, x's first column is all zeros (so the oracle's skip of
     exact-zero terms keeps the numerator finite) and the first column of
     the upstream gradient is zero (so the oracle skips the first NaN and
     keeps the second, where bare arithmetic keeps the first).  Every other
     output is finite, so only the check of x's share sends the C backward
     to its pinned body. *)
  @ [
      agree_case "crossbar NaN in x's share only"
        (crossbar_run ~want_dx:true
           (ot 6 3 (fun r c ->
                if c > 0 then (float_of_int ((r * 3) + c) /. 7.0) -. 1.0
                else if r mod 2 = 0 then 0.0
                else -0.0))
           (ot 1 4 (fun _ j -> base_eta.(j)))
           (ot 9 2 (fun r c ->
                match (r, c) with
                | 0, 0 -> Int64.float_of_bits 0x7ff8000000000abcL
                | 0, 1 -> Int64.float_of_bits 0xfff8000000000defL
                | _ -> 0.25 +. (float_of_int ((r * 2) + c) /. 11.0)))
           (ot 6 2 (fun r c -> if c = 0 then 0.0 else float_of_int (r + 1) /. 3.0)));
    ]
  (* every special in every η slot, on one shape *)
  @ List.init 4 (fun slot ->
        case (Printf.sprintf "crossbar eta.(%d) = every special" slot) (fun () ->
            Array.iter
              (fun e ->
                agree
                  (Printf.sprintf "crossbar eta.(%d) = %Lx" slot (bits e))
                  (crossbar_run ~want_dx:true
                     (ot_map (fun v -> v /. 50.0) (mk_full 6 3 1))
                     (eta_with slot e)
                     (ot_map (fun v -> v /. 40.0) (mk_full 9 4 2))
                     (mk_special 6 4 3)))
              nan_specials))

(* {2 Special-value digests}

   FNV-1a digests of the kernels' outputs, frozen when the oracle was
   still the reference backend that every golden was recorded on.  Both
   the oracle and the Tensor kernels must produce them, so each side is
   pinned on its own, not only by agreeing with the other. *)

(* matmul over the sweep's shapes on [mk_special] data, in sweep order:
   the NaN payloads are part of the contract. *)
let expected_matmul_specials_digest = "c857fd5a843aa239"

let matmul_specials_digest (module M : OPS) =
  let digest = ref 0xcbf29ce484222325L in
  special_sweep (fun m k n ->
      digest :=
        fnv1a64_from !digest
          M.(to_array (matmul (of_ot (mk_special m k (m + k))) (of_ot (mk_special k n (n + 3))))));
  [ Printf.sprintf "%016Lx" !digest ]

(* matmul on the serving network's crossbar shapes (64-row batch, 64-48-16
   layers plus the bias row), captured from the naive loop. *)
let expected_matmul_digests =
  [ "matmul 64x65x48 cc0c36738e7b40ed"; "matmul 64x49x16 7e77d848a13cdc43" ]

let matmul_digests (module M : OPS) =
  List.map
    (fun (m, k, n) ->
      Printf.sprintf "matmul %dx%dx%d %016Lx" m k n
        (fnv1a64 M.(to_array (matmul (of_ot (mk_full m k 1)) (of_ot (mk_full k n 2))))))
    [ (64, 65, 48); (64, 49, 16) ]

(* Operands: [specials] in every ordered pair at the same index,
   [nan_specials] likewise with each value as the scalar operand and in
   each η slot; the backward kernels get [g = a] against [x = y = b]. *)
let expected_special_digests =
  [
    "add 325fd03412eb6c5e";
    "sub 339dc810ba9c0c23";
    "mul 040e542a79bfdef9";
    "div 7715d2e4625354e0";
    "neg 965ed49cd91248d0";
    "scale 73d36b6b974662bb";
    "add_scalar 0280dd946df2f580";
    "add_rowvec a63edbe774d60f4e";
    "mul_rowvec 374411d0fc941955";
    "transpose 1e01edf4ee80bf91";
    "sum_rows 4ade3d4a4154a917";
    "sum dot e54869eec077eec7";
    "matmul_nt c1b10b1da84bcc89";
    "softmax_rows 13a06b8854228a61";
    "ce_loss_sum aa95a93229a20fc0";
    "unop tanh 251f04a0a7893015";
    "unop_bwd tanh 53b534a9872ba2c1";
    "unop sigmoid f9ce88c1b35be7f9";
    "unop_bwd sigmoid 030da54aa756efb8";
    "unop relu 21c67a09eebad1a1";
    "unop_bwd relu d7c8e5698c39f900";
    "ptanh 48512ca0c717ed79";
    "ptanh_bwd 912b52afacd5c855";
    "crossbar 34b9f0a6264e7d6a";
    "crossbar_bwd d4a676c9ee8867ea";
  ]

let special_digests (module M : OPS) =
  let pin what outs =
    Printf.sprintf "%s %016Lx" what (List.fold_left fnv1a64_from 0xcbf29ce484222325L outs)
  in
  let t what xs = pin what (List.map M.to_array xs) in
  let ns = Array.length specials in
  let a = M.of_ot (ot ns ns (fun i _ -> specials.(i))) in
  let b = M.of_ot (ot ns ns (fun _ j -> specials.(j))) in
  let v = M.of_ot (ot 1 ns (fun _ j -> specials.(((j * 5) + 3) mod ns))) in
  let nn = Array.length nan_specials in
  let s i = nan_specials.(i mod nn) in
  let na_ot = ot nn nn (fun i _ -> nan_specials.(i)) in
  let na = M.of_ot na_ot in
  let nb_ot = ot nn nn (fun _ j -> nan_specials.(j)) in
  let nb = M.of_ot nb_ot in
  let by_scalar f = List.map f (Array.to_list nan_specials) in
  (* base η, then every value of [nan_specials] in every slot *)
  let etas =
    ot 1 4 (fun _ j -> base_eta.(j))
    :: List.concat_map (fun slot -> by_scalar (eta_with slot)) [ 0; 1; 2; 3 ]
  in
  let ptanh =
    List.map
      (fun eta ->
        let eta = M.of_ot eta in
        let h, out = M.ptanh ~eta na in
        let dv, deta = M.ptanh_bwd ~eta na ~h ~g:nb in
        ([ h; out ], [ dv; deta ]))
      etas
  in
  let crossbar =
    List.concat_map
      (fun eta ->
        let run x cond g = M.crossbar ~want_dx:true ~x:(M.of_ot x) ~eta:(M.of_ot eta) ~cond:(M.of_ot cond) ~g:(M.of_ot g) in
        [
          run
            (ot nn 3 (fun i p -> s (i + (3 * p))))
            (ot 9 nn (fun r j -> s (j + (5 * r))))
            (ot nn nn (fun i j -> s (i + (7 * j))));
          run
            (ot_map (fun x -> x /. 50.0) (mk_full 6 3 1))
            (ot_map (fun x -> x /. 40.0) (mk_full 9 4 2))
            (mk_special 6 4 3);
        ])
      etas
  in
  [
    t "add" [ M.add a b ];
    t "sub" [ M.sub a b ];
    t "mul" [ M.mul a b ];
    t "div" [ M.div a b ];
    t "neg" [ M.neg na ];
    t "scale" (by_scalar (fun k -> M.scale k na));
    t "add_scalar" (by_scalar (fun k -> M.add_scalar k na));
    t "add_rowvec" [ M.add_rowvec a v ];
    t "mul_rowvec" [ M.mul_rowvec a v ];
    t "transpose" [ M.transpose (M.of_ot (ot nn (nn + 3) (fun i j -> s ((i * 5) + j)))) ];
    t "sum_rows" [ M.sum_rows a; M.sum_rows nb ];
    pin "sum dot"
      [ Array.init nn (fun i -> M.sum (M.of_ot (row_of na_ot i))); [| M.dot na nb; M.dot nb na |] ];
    t "matmul_nt" [ M.matmul_nt a b ];
    t "softmax_rows" [ M.softmax_rows a ];
    pin "ce_loss_sum" [ [| M.ce_loss_sum na (M.of_ot (ot_map Float.abs nb_ot)) |] ];
  ]
  @ List.concat_map
      (fun op ->
        [
          t ("unop " ^ unop_name op) [ M.unop op a ];
          t ("unop_bwd " ^ unop_name op) [ M.unop_bwd op ~x:b ~y:b ~g:a ];
        ])
      all_unops
  @ [
      t "ptanh" (List.concat_map fst ptanh);
      t "ptanh_bwd" (List.concat_map snd ptanh);
      t "crossbar" (List.concat_map fst crossbar);
      t "crossbar_bwd" (List.concat_map snd crossbar);
    ]

let test_matmul_specials_digest () =
  check_digests "special-value matmul sweep digest" [ expected_matmul_specials_digest ]
    matmul_specials_digest

let test_matmul_digests () = check_digests "matmul digests" expected_matmul_digests matmul_digests

(* One case per entry of the table and side, so a drift names every kernel
   it reaches; each side's table is computed once. *)
let special_digest_cases =
  let name_of entry = String.sub entry 0 (String.rindex entry ' ') in
  let side label (module M : OPS) =
    let table = lazy (special_digests (module M)) in
    case
      (Printf.sprintf "special-value digest entries [%s]" label)
      (fun () ->
        Alcotest.(check (list string)) "entries"
          (List.map name_of expected_special_digests)
          (List.map name_of (Lazy.force table)))
    :: List.mapi
         (fun i expected ->
           let what = Printf.sprintf "special-value digest %s [%s]" (name_of expected) label in
           case what (fun () ->
               Alcotest.(check string) what expected (List.nth (Lazy.force table) i)))
         expected_special_digests
  in
  side "oracle" (module Or) @ side "tensor" (module Tc)

(* {2 NaN and signed-zero edge semantics} *)

(* The printable-ω map clips R2 = R1·k1 into its Table-I box with a
   straight-through estimator.  A NaN product passes the clip unchanged (the
   comparison chain [if x < lo then lo else if x > hi then hi else x] is
   false both ways), so a fault is never masked as a bound.  A NaN raw k1
   makes R1·k1 NaN while R1 itself stays finite. *)
let test_clip_nan_passthrough () =
  let nl = Pnn.Nonlinear.create (Fixtures.surrogate ()) in
  T.blit
    ~src:(T.of_array [| 0.0; -0.0; 0.0; 1.0; -1.0; Float.nan; 0.5 |])
    ~dst:(Autodiff.value (Pnn.Nonlinear.raw_param nl));
  let o = T.to_array (Autodiff.value (Pnn.Nonlinear.printable_omega nl ~noise:(T.ones 1 7))) in
  if Float.is_nan o.(0) || not (Float.is_nan o.(1)) then
    Alcotest.failf "R1 = %h, clipped R2 = %h (expected finite, NaN)" o.(0) o.(1)

let test_minmax_argmax_edges () =
  (* NaN accumulator propagates; NaN element is skipped; -0.0 vs 0.0 keeps
     the first encountered. *)
  let cases =
    [
      ("nan first", [| Float.nan; 3.0; -7.0 |]);
      ("nan middle", [| 3.0; Float.nan; -7.0 |]);
      ("neg zero first", [| -0.0; 0.0; 0.0 |]);
      ("pos zero first", [| 0.0; -0.0; -0.0 |]);
      ("plain", [| 4.0; -2.0; 9.0; 9.0 |]);
    ]
  in
  List.iter
    (fun (name, data) ->
      let x = { r = 1; c = Array.length data; d = data } in
      agree ("min " ^ name) (fun (module M : OPS) -> [| M.(min_value (of_ot x)) |]);
      agree ("max " ^ name) (fun (module M : OPS) -> [| M.(max_value (of_ot x)) |]);
      agree ("argmax " ^ name) (fun (module M : OPS) ->
          Array.map float_of_int M.(argmax_rows (of_ot x))))
    cases;
  (* a leading NaN is an incumbent nothing displaces *)
  Alcotest.(check int) "argmax of leading-NaN row" 0
    (T.argmax_rows (T.of_array [| Float.nan; 99.0 |])).(0)

(* {2 C length assertions run before the stub} *)

let test_c_length_assertion () =
  let sentinel = 7.0 in
  let buf n v = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout n (fun _ -> v) in
  let untouched what d =
    for i = 0 to Bigarray.Array1.dim d - 1 do
      if not (Float.equal d.{i} sentinel) then
        Alcotest.failf "%s: stub wrote dst index %d" what i
    done
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: short buffer accepted" what
    | exception Invalid_argument _ -> ()
  in
  (* short first operand; dst is long enough, so a stub that ran would
     have overwritten the sentinels *)
  let dst = buf 8 sentinel in
  raises "add" (fun () ->
      (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
      Kernels_c.add (buf 5 1.0) (buf 8 1.0) dst 8);
  untouched "add" dst;
  raises "scale" (fun () ->
      (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
      Kernels_c.scale 2.0 (buf 8 1.0) (buf 7 sentinel) 8);
  (* matmul 3x4 · 4x5 with a 4x4 right operand *)
  let c = buf 15 sentinel in
  raises "matmul" (fun () ->
      (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
      Kernels_c.matmul (buf 12 1.0) (buf 16 1.0) c 3 4 5);
  untouched "matmul" c;
  (* and the same buffers at the right lengths pass *)
  (* pnnlint:allow R6 the test drives the C kernel below the Tensor shape checks *)
  Kernels_c.matmul (buf 12 1.0) (buf 20 1.0) c 3 4 5;
  Alcotest.(check (float 0.0)) "valid matmul ran" 4.0 c.{0}

(* {2 blit_changed: bitwise change detection without allocation} *)

let test_blit_changed () =
  let src = Tc.of_ot (mk_special 5 13 1) in
  let dst = T.copy src in
  Alcotest.(check bool) "identical" false (T.blit_changed ~src ~dst);
  List.iter
    (fun (name, before, after) ->
      T.set dst 2 7 before;
      T.set src 2 7 after;
      Alcotest.(check bool) name true (T.blit_changed ~src ~dst);
      check_bits ~what:(name ^ " copied") (T.to_array src) (T.to_array dst);
      Alcotest.(check bool) (name ^ " again") false (T.blit_changed ~src ~dst))
    [
      ("+0 over -0", -0.0, 0.0);
      ("NaN payload", Float.nan, Int64.float_of_bits 0x7ff8000000000abcL);
      ("ordinary value", 1.0, 1.0000000000000002);
    ];
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (T.blit_changed ~src ~dst)
  done;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then Alcotest.failf "allocation: %.0f minor words over 1000 calls" words

(* The C comparison against the oracle's loop: every ordered pair of
   [nan_specials] (signed zeros, NaN payloads of both signs, signalling
   NaNs) at the same index, equal bits, and one difference at each
   position of a row, which the C stub copies from. *)
let blit_changed_cases =
  let ns = Array.length nan_specials in
  let run src dst (module M : OPS) =
    let src = M.of_ot src and dst = M.of_ot dst in
    let changed = M.blit_changed ~src ~dst in
    Array.append [| (if changed then 1.0 else 0.0) |] (M.to_array dst)
  in
  let a = ot ns ns (fun i _ -> nan_specials.(i)) in
  let b = ot ns ns (fun _ j -> nan_specials.(j)) in
  let row = ot 1 ns (fun _ j -> nan_specials.(j)) in
  [
    agree_case "blit_changed every ordered pair" (run a b);
    agree_case "blit_changed equal bits" (run a a);
  ]
  @ List.init ns (fun p ->
        agree_case (Printf.sprintf "blit_changed one difference at %d" p)
          (run row
             (ot 1 ns (fun _ j -> if j = p then nan_specials.((j + 1) mod ns) else nan_specials.(j)))))

(* {2 Fused hot-path kernels against the kernel sequences they replace} *)

let fused_ops = [ None; Some T.Tanh; Some T.Relu; Some T.Sigmoid ]
let fused_op_name = function None -> "none" | Some u -> unop_name u
let fused_shapes = [ (1, 1, 1); (5, 7, 4); (3, 5, 9); (8, 8, 16); (0, 3, 4); (6, 2, 17) ]

let test_fused_dense () =
  List.iter
    (fun (m, k, n) ->
      List.iter
        (fun op ->
          let what = Printf.sprintf "fused dense %s %dx%dx%d" (fused_op_name op) m k n in
          let x = T.scale 0.05 (Tc.of_ot (mk m k 1)) in
          let w = T.scale 0.05 (Tc.of_ot (mk k n 2)) in
          let b = T.scale 0.05 (Tc.of_ot (mk 1 n 3)) in
          let pre = T.zeros m n and out = T.zeros m n in
          T.matmul_bias_unop_into ?op x w b ~pre ~out;
          (* the decomposed sequence: matmul, the bias row, the unop *)
          let pre2 = T.zeros m n in
          T.matmul_into x w ~dst:pre2;
          if m > 0 && n > 0 then T.add_rowvec_into pre2 b ~dst:pre2;
          let out2 =
            match op with
            | None -> pre2
            | Some u ->
                let o = T.zeros m n in
                T.unop_into u pre2 ~dst:o;
                o
          in
          check_bits ~what:(what ^ " (pre)") (T.to_array pre2) (T.to_array pre);
          check_bits ~what:(what ^ " (out)") (T.to_array out2) (T.to_array out);
          (* sharing pre as out must work when no unop is applied *)
          if op = None then begin
            let shared = T.zeros m n in
            T.matmul_bias_unop_into x w b ~pre:shared ~out:shared;
            check_bits ~what:(what ^ " (pre==out)") (T.to_array out2) (T.to_array shared)
          end)
        fused_ops)
    fused_shapes

let test_fused_adam () =
  let lr = 0.01 and beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  let bc1 = 0.1 and bc2 = 0.001 in
  let mk_leaf s =
    (Tc.of_ot (mk 3 4 s), Tc.of_ot (mk 3 4 (s + 10)), Array.make 12 0.01, Array.make 12 0.02)
  in
  let items = List.map mk_leaf [ 1; 2; 3 ] in
  let twins = List.map (fun (v, g, m, s) -> (T.copy v, g, Array.copy m, Array.copy s)) items in
  T.adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 items;
  (* the per-leaf sequence *)
  List.iter
    (fun (v, g, m, s) -> T.adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v:s ~grad:g v)
    twins;
  List.iteri
    (fun i ((v, _, m, s), (v', _, m', s')) ->
      let what = Printf.sprintf "fused adam leaf %d" i in
      check_bits ~what:(what ^ " value") (T.to_array v') (T.to_array v);
      check_bits ~what:(what ^ " m") m' m;
      check_bits ~what:(what ^ " v") s' s)
    (List.combine items twins)

let test_fused_autodiff () =
  (* Autodiff.dense (one node) against the 3-node chain: values and every
     gradient bit-identical. *)
  let run fused op_act =
    let x = Autodiff.const (T.scale 0.05 (Tc.of_ot (mk 4 6 1))) in
    let w = Autodiff.param (T.scale 0.05 (Tc.of_ot (mk 6 3 2))) in
    let b = Autodiff.param (T.scale 0.05 (Tc.of_ot (mk 1 3 3))) in
    let y =
      if fused then Autodiff.dense ?op:op_act x w b
      else
        let pre = Autodiff.add_rowvec (Autodiff.matmul x w) b in
        match op_act with
        | None -> pre
        | Some T.Tanh -> Autodiff.tanh pre
        | Some T.Sigmoid -> Autodiff.sigmoid pre
        | Some T.Relu -> Autodiff.relu pre
    in
    Autodiff.backward (Nodes.sum (Nodes.mul y y));
    Array.concat
      [
        T.to_array (Autodiff.value y); T.to_array (Autodiff.grad w); T.to_array (Autodiff.grad b);
      ]
  in
  List.iter
    (fun op ->
      check_bits
        ~what:(Printf.sprintf "autodiff dense %s" (fused_op_name op))
        (run false op) (run true op))
    fused_ops

(* {2 Construction} *)

let test_surface () =
  let t = T.create 2 3 [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  Alcotest.(check (array (float 0.0)))
    "create/to_array round-trip" [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] (T.to_array t);
  let z = T.zeros 2 2 in
  let a = T.to_array z in
  a.(0) <- 99.0;
  Alcotest.(check (float 0.0)) "to_array is a copy" 0.0 (T.get z 0 0);
  let c = T.copy t in
  T.set c 0 0 42.0;
  Alcotest.(check (float 0.0)) "copy is deep" 1.0 (T.get t 0 0)

(* {2 Frozen numerics}

   A printed network's loss and parameter gradients under a noise draw
   (the backward pass runs every matmul kernel), printed with %h.  Their
   MD5 was captured on the reference backend, which computed the same bits
   as the C kernels; together with the cache schema it pins the numerics
   every cached result was computed with. *)

let loss_grads_entry () =
  let config = Pnn.Config.default in
  let net =
    Pnn.Network.create_deep (Rng.create 5) config (Fixtures.surrogate ()) ~sizes:[ 4; 3; 3 ]
  in
  let rng = Rng.create 6 in
  let x = T.uniform rng 24 4 ~lo:0.0 ~hi:1.0 in
  let labels = T.init 24 3 (fun r c -> if r mod 3 = c then 1.0 else 0.0) in
  let noise =
    Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:(Pnn.Network.theta_shapes net)
  in
  let loss, grads = Pnn.Network.draw_loss_and_grads net ~noise ~x ~labels in
  Printf.sprintf "%h" loss
  :: List.map
       (fun g ->
         String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") (T.to_array g))))
       grads

let test_frozen_numerics () =
  Alcotest.(check string) "cache schema" "pnn-save-2+fmath-1" (Pnn.Serialize.cache_schema ());
  let entry = loss_grads_entry () in
  Alcotest.(check string) "loss" "0x1.193fad10e4467p+0" (List.hd entry);
  Alcotest.(check string)
    "MD5 of the %h loss and gradient lines" "4a6faecab7f58181c9e1d5114466c486"
    (Digest.to_hex (Digest.string (String.concat "\n" entry)))

let () =
  Alcotest.run "backend"
    [
      ("elementwise", at_both_widths elementwise_cases);
      ("reductions", reduction_cases);
      ("matmul family", at_both_widths matmul_cases);
      ("training kernels", at_both_widths training_cases);
      ("two-NaN operands", two_nan_cases);
      ("matmul family = oracle", at_both_widths matmul_oracle_cases);
      ("crossbar pair = oracle", at_both_widths crossbar_cases);
      ( "digests",
        at_both_widths
          [
            Alcotest.test_case "matmul special-value digest" `Quick
              test_matmul_specials_digest;
            Alcotest.test_case "matmul digests" `Quick test_matmul_digests;
          ]
        @ [ Alcotest.test_case "frozen numerics" `Quick test_frozen_numerics ]
        @ at_both_widths special_digest_cases );
      ( "edges",
        [
          Alcotest.test_case "R2 clip NaN pass-through" `Quick test_clip_nan_passthrough;
          Alcotest.test_case "min/max/argmax NaN and -0.0" `Quick test_minmax_argmax_edges;
          Alcotest.test_case "C length assertion runs before the stub" `Quick
            test_c_length_assertion;
          Alcotest.test_case "blit_changed" `Quick test_blit_changed;
        ]
        @ blit_changed_cases );
      ( "fused",
        at_both_widths [ Alcotest.test_case "dense fused vs decomposed" `Quick test_fused_dense ]
        @ [
            Alcotest.test_case "adam fused vs per-leaf" `Quick test_fused_adam;
            Alcotest.test_case "autodiff dense node" `Quick test_fused_autodiff;
          ] );
      ( "surface",
        [
          Alcotest.test_case "construction" `Quick test_surface;
          Alcotest.test_case "AVX2 CPUs get the 256-bit matmul" `Quick test_wide_tiles_on_avx2;
        ] );
    ]
