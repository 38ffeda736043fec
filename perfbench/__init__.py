"""Repository benchmark: workloads, tracing wrappers and metric arithmetic."""
