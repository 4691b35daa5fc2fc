"""The end-to-end benchmark: four sweep workloads, end-to-end metrics
and an outside-in layer trace.  See README.md in this directory."""
