# End-to-end CLI smoke test: vsq_quantize a small model, then vsq_inspect
# the exported package (layer table and --kernels), and check that both
# tools answer usage errors with exit 2 and an unreadable package with
# exit 1. Invoked from ctest (see tests/CMakeLists.txt) with
#   -DVSQ_QUANTIZE=<path> -DVSQ_INSPECT=<path> -DWORK_DIR=<scratch dir>
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{VSQ_ARTIFACTS} "${WORK_DIR}/artifacts")
set(PACKAGE "${WORK_DIR}/tiny_int.vsqa")

execute_process(
  COMMAND "${VSQ_QUANTIZE}" --model=tiny --config=4/8/6/10 --vector=16
          "--out=${PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_quantize output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_quantize failed with exit code ${rc}")
endif()
if(NOT EXISTS "${PACKAGE}")
  message(FATAL_ERROR "vsq_quantize did not write ${PACKAGE}")
endif()

execute_process(
  COMMAND "${VSQ_INSPECT}" "--package=${PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_inspect output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_inspect failed with exit code ${rc}")
endif()
# The tiny model has exactly two GEMMs (fc1, fc2); anchoring on the count
# catches a regression that exports an empty package.
if(NOT out MATCHES "2 layers")
  message(FATAL_ERROR "vsq_inspect did not report the expected 2 layers")
endif()
if(NOT out MATCHES "fc1" OR NOT out MATCHES "fc2")
  message(FATAL_ERROR "vsq_inspect layer table missing fc1/fc2 rows")
endif()

# --kernels resolves the package as a deployment would and prints each
# layer's bound kernels, the activation quantizer among them.
execute_process(
  COMMAND "${VSQ_INSPECT}" "--package=${PACKAGE}" --kernels
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_inspect --kernels output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_inspect --kernels failed with exit code ${rc}")
endif()
if(NOT out MATCHES "Quantizer")
  message(FATAL_ERROR "vsq_inspect --kernels did not print the quantizer column")
endif()

# Usage errors exit 2 before any work: a mistyped flag must not export a
# package at the default config, and neither a mistyped --kernels nor a
# bare package path may pass for a successful inspection.
set(TYPO_PACKAGE "${WORK_DIR}/typo_int.vsqa")
execute_process(
  COMMAND "${VSQ_QUANTIZE}" --model=tiny --confg=2/8/6/10 "--out=${TYPO_PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "vsq_quantize --confg exited with ${rc}, expected the usage error 2:\n${out}")
endif()
if(EXISTS "${TYPO_PACKAGE}")
  message(FATAL_ERROR "vsq_quantize wrote ${TYPO_PACKAGE} despite the unknown flag")
endif()
foreach(bad_args "--package=${PACKAGE};--kernles" "${PACKAGE}")
  execute_process(
    COMMAND "${VSQ_INSPECT}" ${bad_args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "vsq_inspect ${bad_args} exited with ${rc}, expected the usage error 2:\n${out}")
  endif()
endforeach()

# A malformed flag value is a usage error too: exit 2, nothing exported.
foreach(bad_flag "--config=bogus" "--vector=abc" "--vector=16x")
  execute_process(
    COMMAND "${VSQ_QUANTIZE}" --model=tiny ${bad_flag} "--out=${TYPO_PACKAGE}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "vsq_quantize ${bad_flag} exited with ${rc}, expected the usage error 2:\n${out}")
  endif()
  if(EXISTS "${TYPO_PACKAGE}")
    message(FATAL_ERROR "vsq_quantize wrote ${TYPO_PACKAGE} despite ${bad_flag}")
  endif()
endforeach()

# A package that cannot be read fails the run (exit 1) with one line on
# stderr, not an abort.
execute_process(
  COMMAND "${VSQ_INSPECT}" "--package=${WORK_DIR}/missing.vsqa"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "vsq_inspect on a missing package exited with ${rc}, expected 1:\n${out}${err}")
endif()
if(NOT err MATCHES "^vsq_inspect: [^\n]*\n$")
  message(FATAL_ERROR "vsq_inspect on a missing package did not print one line on stderr:\n${err}")
endif()
