type arm = { learnable : bool; variation_aware : bool }

let arms =
  [
    { learnable = true; variation_aware = true };
    { learnable = true; variation_aware = false };
    { learnable = false; variation_aware = true };
    { learnable = false; variation_aware = false };
  ]

let arm_name a =
  Printf.sprintf "%s/%s"
    (if a.learnable then "learnable" else "fixed")
    (if a.variation_aware then "va" else "nominal")

type scale = {
  seeds : int list;
  test_epsilons : float list;
  n_mc_test : int;
  config : Pnn.Config.t;
  init : [ `Centered | `Random_sign ];
  surrogate_samples : int;
  surrogate_epochs : int;
}

let init_name = function `Centered -> "centered" | `Random_sign -> "random_sign"

let quick =
  {
    seeds = [ 1; 2 ];
    test_epsilons = [ 0.05; 0.10 ];
    n_mc_test = 30;
    config =
      { Pnn.Config.default with max_epochs = 500; patience = 120; n_mc_train = 3; n_mc_val = 5 };
    init = `Centered;
    surrogate_samples = 2000;
    surrogate_epochs = 1500;
  }

let committed =
  {
    seeds = [ 1; 2; 3 ];
    test_epsilons = [ 0.05; 0.10 ];
    n_mc_test = 100;
    config = { Pnn.Config.default with Pnn.Config.max_epochs = 1200; patience = 250 };
    init = `Centered;
    surrogate_samples = 4000;
    surrogate_epochs = 3000;
  }

let paper =
  {
    seeds = List.init 10 (fun i -> i + 1);
    test_epsilons = [ 0.05; 0.10 ];
    n_mc_test = 100;
    config = Pnn.Config.paper ();
    init = `Centered;
    surrogate_samples = 10_000;
    surrogate_epochs = 10_000;
  }

let fragile =
  {
    seeds = [ 1; 2; 3 ];
    test_epsilons = [ 0.05; 0.10 ];
    n_mc_test = 100;
    config =
      {
        Pnn.Config.default with
        Pnn.Config.lr_theta = 0.1;
        max_epochs = 600;
        patience = 150;
      };
    init = `Random_sign;
    surrogate_samples = 4000;
    surrogate_epochs = 3000;
  }

let scales =
  [ ("quick", quick); ("committed", committed); ("paper", paper); ("fragile", fragile) ]

let names = List.map fst scales

let of_name s =
  match List.assoc_opt s scales with
  | Some scale -> scale
  | None -> invalid_arg ("Setup.of_name: unknown scale " ^ s)

let surrogate_of_scale ?cache scale =
  Surrogate.Pipeline.ensure ?cache ~n:scale.surrogate_samples
    ~max_epochs:scale.surrogate_epochs ~seed:42 ()

let surrogate_digest surrogate = Cache.digest_lines (Surrogate.Model.to_lines surrogate)
