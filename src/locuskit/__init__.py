"""locuskit: localization kernels, local means, and everything they build.

Kernel algebra and matrix machinery live in :mod:`locuskit.kernels`; the
pointwise predictors in :mod:`locuskit.estimators`; shift iterations
(MeanShift and relatives) in :mod:`locuskit.shifts`; density and generative
tools in :mod:`locuskit.density`; embeddings in :mod:`locuskit.embedding`;
kernel learning in :mod:`locuskit.adaptive`; sequence/attention models in
:mod:`locuskit.sequence`.  ``locuskit.cli`` is the batch entry point.
"""

from . import adaptive, density, embedding, errors, estimators, kernels, metrics, sequence, shifts, synth
from .adaptive import (
    QkvHead,
    QkvParams,
    finite_diff_gradcheck,
    fit_multikernel,
    fit_qkv,
    multihead_reconstruct,
    tune_bandwidth,
)
from .density import (
    DiffusionSchedule,
    GaussianNoise,
    KernelNoise,
    conditional_kde,
    dae_chain,
    diffusion_generate,
    kde,
    kde_values,
    noise_sample,
    score_estimate,
    tweedie_denoise,
)
from .embedding import (
    amds_factorize,
    cooccurrence_embed,
    lle_embed,
    lle_weights,
    trimap_embed,
)
from .estimators import (
    Dataset,
    inference_precompute,
    inference_predict,
    knn_predict,
    lazy_transform,
    local_centerless_classify,
    local_fit,
    local_linear_predict,
    local_linear_transform,
    local_mean_predict,
    local_mode_predict,
    local_pca,
    loo_error,
    monte_carlo_local_mean,
    self_kernel_local_mean,
)
from .kernels import (
    Kernel,
    KernelMatrix,
    LaplacianView,
    SelfKernel,
    StochasticMatrix,
    concrete,
    derive_kernel,
    dirac,
    epanechnikov,
    eval_kernel,
    feature_kernel,
    filter_solve,
    gaussian,
    gram,
    knn_kernel,
    laplacian_of,
    make_kernel,
    neighborhood,
    normalize_rows,
    smoothing_norm,
    uniform,
)
from .sequence import (
    PositionEncoding,
    Sequence,
    attention_layer,
    autoregressive_complete,
    local_local_mean,
    nlm_denoise,
    temporal_gram,
    temporal_local_mean,
    transformer_encode,
)
from .shifts import (
    ShiftResult,
    extract_clusters,
    mean_shift,
    medoid_shift,
    mode_shift,
    nn_shift,
    pc_shift,
    relaxation_label,
)

__version__ = "0.1.0"
