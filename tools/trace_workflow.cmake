# End-to-end observability acceptance: run the replay suite with
# --trace-dir, then read every artifact back with ctb_trace. Run with:
#   cmake -DCTB_BENCH=<path> -DCTB_TRACE=<path> -DWORK_DIR=<dir>
#         -P trace_workflow.cmake
execute_process(
  COMMAND ${CTB_BENCH} --suite replay --repeats 1 --tag tracecheck
          --out ${WORK_DIR}/BENCH_tracecheck.json
          --trace-dir ${WORK_DIR}/tracecheck
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "replay run failed (${bench_rc}):\n${bench_out}${bench_err}")
endif()
foreach(artifact metrics.json flight.json)
  if(NOT EXISTS ${WORK_DIR}/tracecheck/${artifact})
    message(FATAL_ERROR "--trace-dir did not write ${artifact}")
  endif()
endforeach()

# The summary view must load whatever was written cleanly.
execute_process(
  COMMAND ${CTB_TRACE} ${WORK_DIR}/tracecheck/flight.json
          ${WORK_DIR}/tracecheck/metrics.json
  RESULT_VARIABLE sum_rc
  OUTPUT_VARIABLE sum_out
  ERROR_VARIABLE sum_err)
if(NOT sum_rc EQUAL 0)
  message(FATAL_ERROR
          "ctb_trace summary exited ${sum_rc}:\n${sum_out}${sum_err}")
endif()
if(NOT sum_out MATCHES "traces")
  message(FATAL_ERROR "ctb_trace summary output malformed:\n${sum_out}")
endif()

# metrics.json writes one histogram per line: the lookup-latency histogram
# must be there, and its exemplar list must not be empty.
file(READ ${WORK_DIR}/tracecheck/metrics.json metrics)
string(REGEX MATCH "\"service\\.lookup_us\":{[^\n]*" lookup_hist
       "${metrics}")
if(NOT lookup_hist)
  message(FATAL_ERROR "metrics.json missing the lookup-latency histogram")
endif()
if(NOT lookup_hist MATCHES "\"exemplars\":\\[{\"bucket\":")
  message(FATAL_ERROR "metrics.json's service.lookup_us carries no "
                      "exemplars:\n${lookup_hist}")
endif()

# Stage spans are flight events in the request's trail: the dump holds a
# plan.total span under a nonzero trace id, and ctb_trace resolves that id
# to a trail that prints the span.
file(READ ${WORK_DIR}/tracecheck/flight.json flight)
string(REGEX MATCH
       "\"trace\":\"(0*[1-9a-f][0-9a-f]*)\",\"kind\":\"span\",\"detail\":\"plan\\.total\""
       plan_span "${flight}")
if(NOT plan_span)
  message(FATAL_ERROR "flight.json holds no span event (plan.total) with a "
                      "trace id")
endif()
set(plan_trace ${CMAKE_MATCH_1})
execute_process(
  COMMAND ${CTB_TRACE} --trace ${plan_trace}
          ${WORK_DIR}/tracecheck/flight.json
  RESULT_VARIABLE span_rc
  OUTPUT_VARIABLE span_out
  ERROR_VARIABLE span_err)
if(NOT span_rc EQUAL 0 OR NOT span_out MATCHES "span \\(plan\\.total\\)")
  message(FATAL_ERROR "ctb_trace --trace ${plan_trace} does not show its "
                      "plan.total span (${span_rc}):\n${span_out}${span_err}")
endif()

# The p99-outlier workflow: rank the lookup exemplars, resolve their traces.
execute_process(
  COMMAND ${CTB_TRACE} --top-latency 3
          ${WORK_DIR}/tracecheck/metrics.json
          ${WORK_DIR}/tracecheck/flight.json
  RESULT_VARIABLE top_rc
  OUTPUT_VARIABLE top_out
  ERROR_VARIABLE top_err)
if(NOT top_rc EQUAL 0)
  message(FATAL_ERROR
          "ctb_trace --top-latency exited ${top_rc}:\n${top_out}${top_err}")
endif()
if(NOT top_out MATCHES "slowest lookup exemplars")
  message(FATAL_ERROR "--top-latency output malformed:\n${top_out}")
endif()
message(STATUS "ctb_trace replay workflow clean")
