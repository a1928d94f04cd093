"""Fig. 1 data — per-block φ curves on sampled graphs (elbow exists)."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, get_spark  # noqa: E402

from repro.eval.tables import fig1_block_scores, format_markdown  # noqa: E402

if __name__ == "__main__":
    args = base_parser(__doc__, default_scale=0.01).parse_args()
    spark = get_spark("fig1")
    print("## Fig. 1 — scores for each detected block (sampled graphs)")
    print(format_markdown(fig1_block_scores(spark, scale=args.scale, seed=args.seed)))
    spark.stop()
