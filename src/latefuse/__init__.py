"""Two-modality classifier building and late-fusion pipeline.

Core surface: tabular data model (tables), preprocessing (preprocess),
univariate screening (univariate), the two model families (logreg, forest),
the MRCV harness (mrcv), metrics (metrics), probability/threshold fusion
(fuse), the synthetic data generator (synth), and the CLI (cli).
"""

from .errors import (ConfigError, DataError, ElbowError, FusionError, LatefuseError,
                     MetricsError, ModelError, PredictError, PreprocessError,
                     SeparationWarning, SplitError, StatsError)
from .fuse import FusionRule, fuse_modalities
from .metrics import (Confusion, MetricsRow, RocCurve, auc, best_threshold_bacc,
                      confusion, metrics_from_confusion, roc_curve)
from .mrcv import (FeatureRanking, FoldOutcome, elbow_cut, rank_features_lr,
                   rank_features_rf, run_mrcv_lr, run_mrcv_rf, stratified_split)
from .synth import SynthSpec, generate, generate_pair
from .tables import (ClassLabel, ColumnSchema, FeatureTable, align_common_samples,
                     load_feature_table, partition, save_feature_table)
from .univariate import (ScreenResult, UnivariateResult, bh_fdr, mann_whitney,
                         rank_biserial, shapiro_wilk, univariate_screen)

__version__ = "0.1.0"
