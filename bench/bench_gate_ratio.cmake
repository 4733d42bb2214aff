# Runs bench_gate on fixture records of one op timed at threads=1 and at
# threads=4 and threads=8, where the host clamped threads=8 to 4 effective
# lanes. Both parallel records must derive their ratio against the serial
# one: a fast run passes the ratio gate with nothing skipped, and a run
# slower than serial fails it.
#   cmake -DGATE=path/to/bench_gate -DWORK=scratch/dir -P bench_gate_ratio.cmake
set(baseline "${WORK}/bench_gate_ratio_baseline.json")
set(op "{\"op\": \"round:FedPKD\", \"shape\": \"clients=8,threads")
file(WRITE "${baseline}" "[\n"
     "  ${op}=4,scale=smoke\", \"metric\": \"ratio\", \"value\": 1},\n"
     "  ${op}=8,scale=smoke\", \"metric\": \"ratio\", \"value\": 1}\n"
     "]\n")

# Writes fresh records: serial 100 ns, threads=4 and threads=8 each at
# `parallel_ns`, both with 4 effective lanes.
function(write_fresh path parallel_ns)
  file(WRITE "${path}" "[\n"
       "  ${op}=1,scale=smoke\", \"ns_per_iter\": 100, \"threads\": 1},\n"
       "  ${op}=4,scale=smoke\", \"ns_per_iter\": ${parallel_ns}, "
       "\"threads\": 4},\n"
       "  ${op}=8,scale=smoke\", \"ns_per_iter\": ${parallel_ns}, "
       "\"threads\": 4}\n"
       "]\n")
endfunction()

set(fast "${WORK}/bench_gate_ratio_fast.json")
write_fresh("${fast}" 40.0)
execute_process(COMMAND "${GATE}" --check "${baseline}" --input "${fast}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR out MATCHES "SKIP" OR
   NOT out MATCHES "bench_gate: 2 checked, 0 skipped")
  message(FATAL_ERROR "fast run: exit ${code}, want both ratios derived and "
                      "passing; stdout '${out}', stderr '${err}'")
endif()

set(slow "${WORK}/bench_gate_ratio_slow.json")
write_fresh("${slow}" 200.0)
execute_process(COMMAND "${GATE}" --check "${baseline}" --input "${slow}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(want "FAIL     round:FedPKD | clients=8,threads=8,scale=smoke | ratio: 2 ")
string(FIND "${out}" "${want}" at)
if(code EQUAL 0 OR at EQUAL -1)
  message(FATAL_ERROR "slow run: exit ${code}, want the threads=8 ratio 2 to "
                      "fail; stdout '${out}', stderr '${err}'")
endif()
