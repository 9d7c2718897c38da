# Runs trace_capture (a short traced BERT-L experiment, which also gates
# the export's heap allocations per record) and then trace_validate over
# the Chrome trace it wrote. Invoked as the
# bench_trace_validate ctest with -DCAPTURE_BIN / -DVALIDATE_BIN /
# -DOUT_JSON.
foreach(var CAPTURE_BIN VALIDATE_BIN OUT_JSON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_validate.cmake: ${var} not set")
  endif()
endforeach()

file(REMOVE "${OUT_JSON}")

execute_process(
  COMMAND "${CAPTURE_BIN}" "${OUT_JSON}"
  RESULT_VARIABLE capture_rc
  OUTPUT_VARIABLE capture_out
  ERROR_VARIABLE capture_err)
if(NOT capture_rc EQUAL 0)
  message(FATAL_ERROR
          "trace_capture exited with ${capture_rc}\n${capture_out}\n${capture_err}")
endif()

if(NOT EXISTS "${OUT_JSON}")
  message(FATAL_ERROR "trace_capture did not produce ${OUT_JSON}")
endif()

execute_process(
  COMMAND "${VALIDATE_BIN}" "${OUT_JSON}"
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR
          "trace validation failed (${validate_rc})\n${validate_out}\n${validate_err}")
endif()
