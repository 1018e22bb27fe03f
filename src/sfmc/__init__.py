"""Semi-supervised multi-task feature selection toolkit."""

from .dataset import (MultiTaskDataset, SynthConfig, TaskData, ValidationError,
                      apply_label_fraction, generate_synthetic, load_manifest,
                      write_manifest)
from .graph import (CliqueIndex, TaskLaplacian, build_task_laplacian,
                    centering_matrix, dump_laplacian_csv, knn_cliques,
                    local_laplacian)
from .select_eval import (ExperimentReport, FeatureRanking, LSClassifier,
                          average_precision, fisher_score,
                          mean_average_precision, rank_features,
                          run_experiment, select_top, train_ls_classifier,
                          write_cells_csv)
from .solver import (Anderson, Hyperparams, NumericalError, SelectionModel,
                     SolverState, build_graphs, fit, load_selection_model,
                     norm_l21_smoothed, precompute_task, reduced_objective,
                     reweighted_step, selection_diag, solve_F, solve_W,
                     solve_W_coupled, solve_b, trace_norm_smoothed, update_Dl,
                     update_Dtilde)

__version__ = "0.1.0"
