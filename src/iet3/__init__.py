"""Exact arithmetic for three-interval exchange words: decide substitution
invariance, synthesize the substitution, and cross-check against
cut-and-project sets and Sturmian projections."""

from .qfield import FieldDesc, QuadNum, make_field, parse_quadnum, sqrt_in_field
from .quadunit import PellSolution, ScalingUnit, class_fixing_power, lemma_unit, solve_pell
from .iet import IetSpec, OrbitCoder, code_orbit, inverse_step, make_spec, non_degenerate, normalize, orbit_window, step
from .capset import CapSetConfig, check_selfsimilarity, gap_class, generate, lattice_filter, point_value, star
from .substitution import Substitution, complexity, count_factors
from .invariance import DecisionReport, ReturnSystem, check_block_starts, decide, is_sturm, synthesize
from .sturmian import SturmianSpec, corollary_crosscheck, sigma, sturmian_images_match, sturmian_word, yasutomi

__version__ = "0.1.0"
