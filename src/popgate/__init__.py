"""popgate: long-tail entity QA datasets, BM25 retrieval, LM evaluation, and
popularity-gated adaptive retrieval."""

# Set before the submodule imports: util reads it for the default User-Agent.
__version__ = "0.1.0"

from .adaptive import (
    CostModel,
    ThresholdPolicy,
    TuneResult,
    adaptive_accuracy,
    cost_report,
    retrieval_fraction,
    route,
    tune_thresholds,
)
from .dataset import (
    KnowledgeTriple,
    QAExample,
    QuestionTemplate,
    RELATIONS,
    default_templates,
    read_dataset,
    sample_triples,
    verbalize,
    write_dataset,
)
from .evaluation import (
    EvalReport,
    PredictionRecord,
    accuracy_by_relation,
    binned_accuracy,
    is_correct,
    overall_accuracy,
    popularity_correlation,
    quadrant_analysis,
    wilson_interval,
)
from .lm import (
    Completion,
    CompletionClient,
    EndpointConfig,
    OracleParams,
    PromptSpec,
    build_fewshot_pool,
    genread_answer,
    oracle_lm,
    render_prompt,
    run_predictions,
)
from .popularity import (
    PageviewsClient,
    PageviewsConfig,
    PopularityRecord,
    RelationPopularityStats,
    compute_relation_stats,
    log_popularity,
    relative_popularity,
)
from .retriever import (
    Bm25Index,
    Passage,
    SearchHit,
    build_index,
    load_index,
    recall_at_k,
    save_index,
    tokenize,
)
