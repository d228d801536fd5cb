"""The repo's performance benchmark (see README.md, BENCHMARK.json)."""
