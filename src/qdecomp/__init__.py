"""Retrieval-based question decomposition toolkit."""

__version__ = "0.1.0"

from .corpus import (DEFAULT_WH_WORDS, Question, QuestionCorpus,
                     extract_candidate_questions, load_corpus, save_corpus,
                     tokenize, tokenize_cased)
from .embeddings import (TextEmbedding, VectorTable, cosine, embed_blocks,
                         embed_text_sum, load_vector_table, make_vector_table,
                         save_vector_table, unit_normalize)
from .classifier import (LinearTextClassifier, Prediction, TrainingConfig,
                         classify, evaluate_classifier, load_classifier,
                         route_mined_questions, save_classifier,
                         train_classifier)
from .retrieval import (DecomposeConfig, EmbeddedIndex, LengthFilter,
                        PseudoDecomposition, build_index,
                        build_pseudo_decomposition_dataset, embed_query,
                        load_index, pseudo_decompose_fixed,
                        pseudo_decompose_general, pseudo_decompose_variable,
                        save_index, topk_candidates)
from .editing import (EntitySpan, detect_entities, edit_pseudo_decomposition,
                      edit_sub_question_texts)
from .noising import NoiseConfig, local_shuffle, noise_tokens, word_dropout
from .metrics import (RoundTripRecord, StoppingState, bleu, edit_distance,
                      is_good_decomposition, length_ratio, roundtrip_report,
                      scaled_roundtrip_bleu, stopping_decision)
from .recompose import (ParagraphLogits, ensemble_average, predict_answer,
                        read_logits_jsonl, span_probabilities,
                        write_logits_jsonl)
from .synthbench import (MrrReport, SyntheticComposite,
                         build_synthetic_compositional,
                         build_synthetic_singlehop_corpus, corpus_vocabulary,
                         decomposition_rank, mrr_eval, synthetic_vector_table)
