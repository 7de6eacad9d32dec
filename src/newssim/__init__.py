"""newssim: seeded multi-agent simulation of news diffusion on synthetic networks."""

__version__ = "0.3.0"
