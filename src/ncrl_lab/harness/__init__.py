"""Experiment harness: CLI, IO, seeding, prebuilt suites."""
