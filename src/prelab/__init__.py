"""prelab: a desk-scale lab for measuring and mitigating visual
representation degradation in a toy multimodal decoder transformer."""

__version__ = "0.1.0"

from .numerics import RngStream, ShapeError, covariance, pearson_corr
from .autodiff import (Node, Parameter, backward, no_grad, stop_gradient)
from .optim import AdamW, WarmupCosine
from .archive import ArchiveError, read_archive, write_archive
from .data import DataSpec, generate_dataset, generate_image, generate_qa, load_dataset
from .model import (MllmConfig, MllmParams, encode_image, llm_forward, lm_loss,
                    pre_loss, total_loss, dump_hidden_states, read_hidden_states)
from .training import Trainer, train_step
from .diagnostics import (contrast, layer_metrics, linear_probe, logit_lens,
                          patch_metrics_over_images, pca_effective_dim, redundancy,
                          similarity_map)
