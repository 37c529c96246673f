"""Toolkit for random peaked quantum circuits.

Simulation (``sim``), random ensembles and their overlap statistics
(``ensembles``), variational synthesis (``synth``), gate-wise
interpolation paths and their polynomial structure (``perturb``), block
stitching (``stitch``), classical noise and peak-recovery decoders
(``noise``), closed-form bound calculators (``bounds``) and the
challenge workflow CLI (``cli``).
"""

from .sim import (
    Brickwall,
    Circuit,
    Gate,
    SampleSet,
    StructureError,
    adjoint,
    amplitude,
    apply_circuit,
    basis_state,
    compose,
    controlled_embedding,
    full_unitary,
    output_distribution,
    sample,
)
from .ensembles import (
    PeakedInstance,
    PostselectExhausted,
    block_extract,
    conditioned_generate,
    haar_state_moment,
    haar_unitary,
    hs_overlap,
    postselect_generate,
    random_brickwall,
)
from .synth import AdamParams, ParamCircuit, SynthesisReport, multistart_search
from .perturb import PerturbationPath, amplitude_polynomial, make_path, materialize
from .stitch import StitchPlan, make_plan, predict_peak_recurrence
from .stitch import stitch as stitch_blocks  # the submodule keeps the name `stitch`
from .noise import BSC, GlobalDepolarizing, TSparse, apply_noise, hba_estimate, majority_decode
from .bounds import LogNumber, peak_to_fidelity

__version__ = "0.1.0"
