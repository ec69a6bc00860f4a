"""Variance-reduced stochastic gradient optimization with a stratified
average-gradient method, baselines, convergence-bound checkers, and a
benchmark CLI."""

from ._version import __version__
from .core import (ConvexityConstants, Dataset, GradientStats, as_params,
                   estimate_constants, gradient_population_stats,
                   partition_by_class, squared_distance)
from .ingest import SyntheticSpec, gen_synthetic, read_idx, read_text, write_text
from .objectives import (LogisticRegression, MeanQuadratic, Mlp, Objective,
                         RidgeRegression, accuracy, make_objective)
from .optimizers import (RunConfig, fgd_step, make_state, minibatch_step,
                         recompute_sum, run, run_seeds, sag_step, saga_step, sgd_step,
                         ssag_step, steps_for_passes, svrg_outer)
from .records import Aggregate, RunRecord, aggregate
from .sampling import RngStream, sample_class, sample_uniform, sample_within_class
from .theory import (ComplexityEstimate, CviInputs, Envelope, Theorem2Inputs,
                     check_envelope, cvi_envelope, cvi_lambda, cvi_rho,
                     finite_population_variance, fit_decay_rate,
                     reference_optimum, sag_rate, saga_rate, ssag_complexity, ssag_rate,
                     theorem1_envelope, theorem2_bound, theorem2_envelope, theorem2_inputs_for)

__all__ = [name for name in dir() if not name.startswith("_")]
