"""prelab: a desk-scale lab for measuring and mitigating visual
representation degradation in a toy multimodal decoder transformer."""

__version__ = "0.1.0"
