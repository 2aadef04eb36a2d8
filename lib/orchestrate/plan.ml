type ctx = {
  scale : Experiments.Setup.scale;
  surrogate : Surrogate.Model.t;
  datasets : Datasets.Synth.t list;
  faults : (string * float) option;
  cache : Cache.t;
  checkpoint_every : int;
}

let create ?(datasets = []) ?faults ?(checkpoint_every = 50) ~cache scale
    surrogate =
  { scale; surrogate; datasets; faults; cache; checkpoint_every }

let units ctx =
  let cache = ctx.cache and checkpoint_every = ctx.checkpoint_every in
  Experiments.Table2.jobs ~cache ~checkpoint_every ~datasets:ctx.datasets
    ctx.scale ctx.surrogate
  @
  match ctx.faults with
  | None -> []
  | Some (dataset, epsilon) ->
      Experiments.Faults.jobs ~cache ~checkpoint_every ~dataset ~epsilon
        ctx.scale ctx.surrogate
