"""CLI front-end and experiment orchestration."""
