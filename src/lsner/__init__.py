"""Few-shot NER by matching token representations against label names."""

__version__ = "0.1.0"

from .corpus import (Dataset, EntitySpan, LabelTaxonomy, Sentence, TaggingLabel,
                     expand_tag_labels, extract_spans, filter_coarse_type,
                     parse_conll, rename_taxonomy, repair_bio)
from .encoders import EncoderParams, Vocabulary, build_vocabulary, contextual_sub
from .evaluation import aggregate_runs, evaluate_dataset, micro_f1, per_type_f1
from .matcher import (Adam, LabelCache, ModelState, TrainingConfig,
                      build_label_cache, init_model, predict_tags,
                      run_two_stage, score_tokens, sentence_loss, train_stage)
from .sampler import SupportSet, count_entity_occurrences, sample_support, verify_kshot
from .serialization import (load_checkpoint, load_label_cache, save_checkpoint,
                            save_label_cache)
