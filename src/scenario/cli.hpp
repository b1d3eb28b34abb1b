#pragma once

// The unified `ragnar` experiment CLI (see scenario.hpp for the registry it
// drives).  Split from main() so tests can drive the exact CLI paths
// in-process and assert on exit codes and captured output.
namespace ragnar::scenario {

// `ragnar list | run <scenario...> | run-all` with the uniform option set.
// Returns the process exit code (0 success, 2 usage/unknown-name errors,
// otherwise the max of the scenario return codes).
int run_cli(int argc, char** argv);

}  // namespace ragnar::scenario
