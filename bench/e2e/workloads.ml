(* The four workloads and the run parameters.  Why each workload exists
   is recorded in [why] (and in README.md); all four update only
   [orders], half insertions and half deletions per commit, from one
   client in a closed loop. *)

module Manager = Ivm.Manager
module Maintenance = Ivm.Maintenance

type view = { name : string; mode : Manager.mode; expr : Query.Expr.t }

type t = {
  name : string;
  why : string;
  customers : int;
  orders : int;
  batch : int;  (** update tuples per commit *)
  block : int;
      (** commits per statistics block: long enough to hold whole GC
          cycles and, when durable, whole checkpoint cycles *)
  durable : bool;
  views : view list;
}

(* Every workload runs the manager on one domain.  On a two-vCPU host a
   second domain put every figure of a run, set-up included, in one of
   two regimes about 50% apart, depending on the host's load, and
   pooled row evaluation ran at half the sequential speed.  The traced
   run's pool probe measures the pool on each workload's inputs. *)
let domains = 1

(* Every view runs under the advisor, the engine's default for
   production use; the manager's default policy is [Abort]. *)
let options = { Maintenance.default_options with strategy = Maintenance.Adaptive }

let dashboard mode =
  let open Condition.Formula.Dsl in
  {
    name = "dashboard";
    mode;
    expr =
      Query.Expr.(
        project
          [ "oid"; "cid"; "amount" ]
          (select
             ((v "amount" >% i 900) &&% (v "region" =% s "north"))
             (join (base "orders") (base "customers"))));
  }

(* Single-source, so the analyzer certifies it self-maintainable and the
   advisor takes the zero-base-read path. *)
let hot_orders =
  let open Condition.Formula.Dsl in
  {
    name = "hot_orders";
    mode = Manager.Immediate;
    expr =
      Query.Expr.(
        project [ "oid"; "amount" ] (select (v "amount" >% i 950) (base "orders")));
  }

let revenue mode =
  {
    name = "revenue";
    mode;
    expr =
      Query.Expr.(
        group_by ~keys:[ "cid" ]
          [
            { Query.Aggregate.func = Count; output = "n_orders" };
            { Query.Aggregate.func = Sum "amount"; output = "revenue" };
          ]
          (base "orders"));
  }

let big_join =
  let open Condition.Formula.Dsl in
  {
    name = "big_join";
    mode = Manager.Immediate;
    expr =
      Query.Expr.(
        project
          [ "oid"; "cid"; "amount"; "region" ]
          (select (v "amount" >% i 100) (join (base "orders") (base "customers"))));
  }

(* A tower: maintained from big_join's committed delta. *)
let by_region =
  {
    name = "by_region";
    mode = Manager.Immediate;
    expr =
      Query.Expr.(
        group_by ~keys:[ "region" ]
          [
            { Query.Aggregate.func = Count; output = "n_orders" };
            { Query.Aggregate.func = Max "amount"; output = "max_amount" };
          ]
          (base "big_join"));
  }

let oltp_views = [ dashboard Manager.Immediate; hot_orders; revenue Manager.Immediate ]

let all =
  [
    {
      name = "oltp";
      why =
        "small 4+4 commits on 40k orders: the paper's differential setting, \
         per-commit costs that should scale with the update";
      customers = 2_000;
      orders = 40_000;
      batch = 8;
      block = 1_000;
      durable = false;
      views = oltp_views;
    };
    {
      name = "batch";
      why =
        "128+128 commits: large update sets, where row evaluation and view \
         apply dominate; screening keeps ~95% and a tower view cascades";
      customers = 6_000;
      orders = 8_000;
      batch = 256;
      block = 100;
      durable = false;
      views = [ big_join; by_region ];
    };
    {
      name = "durable";
      why =
        "the oltp stream with the WAL on, so the difference to oltp isolates \
         log append, fsync, checkpoints and recovery";
      customers = 2_000;
      orders = 40_000;
      batch = 8;
      block = 1_000;
      durable = true;
      views = oltp_views;
    };
    {
      name = "refresh";
      why =
        "oltp base with deferred views refreshed every 32 commits: the same \
         layers run at read time on composed 256-tuple deltas";
      customers = 2_000;
      orders = 40_000;
      batch = 8;
      block = 1_000;
      durable = false;
      views = [ dashboard Manager.Deferred; revenue Manager.Deferred ];
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Smoke sizes: the same shapes, twenty times smaller. *)
let shrink w =
  { w with customers = max 20 (w.customers / 20); orders = max 200 (w.orders / 20) }

type params = {
  seconds : float;  (** target length of the timed commit stream *)
  max_seconds : float;  (** hard stop, whatever the sample counts *)
  warmup : int;  (** leading commits excluded from every statistic *)
  min_commits : int;  (** measured commits needed for a commit_p99 block *)
  read_every : int;  (** update tuples between two reads *)
  recoveries : int;
      (** pauses spread over the stream, each timing three set-ups and
          one recovery (setup_s also times the first set-up) *)
  fsync_every : int;  (** group commit: one fsync per this many records *)
  checkpoint_every : int;  (** records between two checkpoints *)
  crash_tail : int;  (** records past the last checkpoint at the crash *)
  trace_share : float;  (** share of the stream the traced run replays *)
  trace_min : int;  (** ... but at least this many commits *)
  trace_repeats : int;  (** repeats of each checkpoint/recovery probe *)
  pool_probe : int;  (** transactions of the traced run's pool probe *)
}

let full ~seconds =
  {
    seconds;
    max_seconds = (2.0 *. seconds) +. 30.0;
    warmup = 500;
    min_commits = 1_000;
    read_every = 256;
    recoveries = 11;
    fsync_every = 64;
    checkpoint_every = 1_000;
    crash_tail = 500;
    trace_share = 0.2;
    trace_min = 1_000;
    trace_repeats = 3;
    pool_probe = 200;
  }

(* About 1% of each stream. *)
let smoke =
  {
    seconds = 0.0;
    max_seconds = 20.0;
    warmup = 20;
    min_commits = 300;
    read_every = 256;
    recoveries = 2;
    fsync_every = 64;
    checkpoint_every = 100;
    crash_tail = 50;
    trace_share = 0.5;
    trace_min = 50;
    trace_repeats = 1;
    pool_probe = 20;
  }
