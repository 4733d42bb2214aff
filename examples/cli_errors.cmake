# Runs experiment_cli with bad numeric flag values: each run must exit
# non-zero with an error that names the flag and the value (or, for a
# compound value, the bad field given as a fourth argument).
#   cmake -DCLI=path/to/experiment_cli -P cli_errors.cmake
function(expect_error flag value expected)
  set(got "${value}")
  if(ARGC GREATER 3)
    set(got "${ARGV3}")
  endif()
  execute_process(COMMAND "${CLI}" "${flag}" "${value}"
                  RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
  set(want "error: ${flag}: expected ${expected}, got '${got}'")
  string(FIND "${err}" "${want}" at)
  if(code EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: exit ${code}, stderr '${err}', "
                        "want '${want}'")
  endif()
endfunction()

expect_error(--threads abc "a non-negative integer")
expect_error(--threads -1 "a non-negative integer")
expect_error(--rounds 3x "a non-negative integer")
expect_error(--seed 1.5 "a non-negative integer")
expect_error(--alpha nope "a number")
expect_error(--drop 0.2junk "a number")
expect_error(--straggler 1:fast "a number" fast)
expect_error(--crash 1:upload:z "an integer" z)
