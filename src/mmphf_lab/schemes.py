"""Names of the rank-index schemes that `mmphf` builds.

They live apart from `mmphf` so the CLI's parser can offer them as
`--scheme` choices without loading the index code; `mmphf` re-exports
them.
"""

SCHEME_EXPLICIT_SET = "explicit-set"
SCHEME_RANK_MAP = "rank-map"
SCHEME_BROKEN = "broken-constant"  # negative control: constant payload

SCHEMES = (SCHEME_EXPLICIT_SET, SCHEME_RANK_MAP)
