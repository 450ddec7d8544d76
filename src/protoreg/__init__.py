"""Prior-guided coarse-to-fine deformable 3D CT registration."""

from .errors import FormatError, ValidationError
from .volgrid import (DisplacementField, Volume, build_pyramid, compose_additive,
                      downsample_avg, jacobian_det, pad_to_shape,
                      trilinear_sample, upsample_field, warp, zero_field)
from .priors import (PriorParams, StructureSet, anatomy_map, boundary_band,
                     fuse_priors, gate, gaussian_proximity, risk_map,
                     signed_distance)
from .similarity import (LossBreakdown, loss_gradient, masked_ncc, smoothness,
                         total_loss)
from .condition import (AdapterWeights, Embedding, FeatureGrid, FilmParams,
                        adapter, film, mean_embedding, pseudo_embedding)
from .engine import (RegConfig, RegReport, RigidTransform, register,
                     rigid_align, warp_contour)
from .metrics import (EndpointStats, MetricReport, endpoint_error,
                      fold_fraction, metric_report, mse, relvoldiff, ssim)
from .synth import (FieldSpec, PhantomSpec, counter_normal, counter_uniform,
                    make_phantom, make_smooth_field)
from .io import read_volume, write_volume

__version__ = "0.1.0"
