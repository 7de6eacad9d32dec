"""newssim: seeded multi-agent simulation of news diffusion on synthetic networks."""

__version__ = "0.5.0"

# the kinds a config and the CLI accept; here so that `cli` builds its parser
# without loading `ingest`
NETWORK_KINDS = ("random", "scale_free", "high_brokerage")
POLICY_KINDS = ("stub", "llm")
