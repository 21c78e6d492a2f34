"""Performance benchmark for the availability library and service."""
