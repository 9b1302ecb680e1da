"""Desk-scale simulator of targeted rowhammer bit-flip attacks on quantized
neural networks: fixed-point inference and gradients, gradient-guided
flip-aware chain search, and a deterministic DRAM / page-allocator model of
the full online exploitation pipeline.
"""

from . import dram, image, massage, qnn, search
from .dram import (DramConfig, DramState, FlipProfile, bench, desk,
                   full_dual, full_single, new_dram, sample_profile, template)
from .image import StaleModeError, TargetBit, WeightImage
from .massage import (MappingMismatch, PageFrameCache, PrecisionViolation,
                      ThresholdViolation, UnsatisfiablePlan, plan_aggressors,
                      plan_mapping, precise_hammer, release_and_remap,
                      retemplate, verify_template)
from .qnn import (BitRef, QuantizedModel, TrainConfig, TrainingFailure,
                  gaussian_blobs, load_checkpoint, loss_and_accuracy, quantize,
                  save_checkpoint, train_small)
from .search import (BitChain, Candidate, ChainStep, ProfileView,
                     ProtectedMask, SearchConfig, disjoint_chains,
                     protection_rounds, rank_candidates, search_chain,
                     search_chain_targeted, search_pass, select_flippable)

__version__ = "0.1.0"
