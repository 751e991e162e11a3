"""braidforge: presentations of graph braid groups via a discrete Morse
matching on the cube complex of hard-core particle configurations, exchange
loop generators, and numerical unitary representations."""

__version__ = "0.1.0"

from .cells import Cell, CubeComplex
from .graph import (Graph, OrderedGraph, check_subdivision,
                    check_tree_conditions, ordered,
                    parse_graph, subdivide_for)
from .loops import OLoopSpec, YLoopSpec, loop_image, solve_physical_presentation
from .morse import MorsePresentation, morse_presentation, rewrite_word
from .oracle import skeleton_presentation
from .presentation import (FPGroup, HomologyClass, from_morse, homology_h1,
                           smith_normal_form, tietze_minimize)
from .reps import (UnitaryAssignment, classify_theta_component, eval_word,
                   locally_abelian_solve, solve_representation,
                   verify_representation)
from .stability import minimize_morse, plus_cell, plus_word, stability_report

__all__ = [
    "Cell", "CubeComplex", "FPGroup", "Graph", "HomologyClass",
    "MorsePresentation", "OLoopSpec", "OrderedGraph", "UnitaryAssignment",
    "YLoopSpec", "check_subdivision", "check_tree_conditions",
    "classify_theta_component", "eval_word",
    "from_morse", "homology_h1", "locally_abelian_solve", "loop_image",
    "minimize_morse", "morse_presentation",
    "ordered", "parse_graph", "plus_cell", "plus_word",
    "rewrite_word", "skeleton_presentation", "smith_normal_form",
    "solve_physical_presentation", "solve_representation",
    "stability_report", "subdivide_for", "tietze_minimize",
    "verify_representation",
]
