"""Multi-level-attention unsupervised person re-identification, desk scale.

Submodules:

* ``autodiff``: float64 tensors with reverse-mode differentiation,
* ``layers``: weight init, batch-norm containers and the parameter walk,
* ``attention``: pixel-, head- and domain-level attention operators,
* ``backbone``: the small residual network hosting the attention block,
* ``clustering``: pairwise distances and DBSCAN pseudo-labels,
* ``contrast``: the cluster memory dictionary and its contrastive loss,
* ``pipeline``: the alternating cluster/train loop with checkpointing,
* ``dataio``: synthetic confounded dataset generation and PPM I/O,
* ``evalviz``: retrieval metrics and gradient-based heatmaps,
* ``verify``: the named finite-difference gradient-check suite,
* ``cli``: the command-line entry point.
"""

__version__ = "0.1.0"
