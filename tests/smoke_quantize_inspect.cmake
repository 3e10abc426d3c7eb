# End-to-end CLI smoke test: vsq_quantize a small model, then vsq_inspect
# the exported package (layer table and --kernels), check that every load
# of a package binds the same kernels, and that both tools answer usage
# errors (an unknown VSQ_ISA among them) with exit 2 and an unreadable
# package or unwritable output with exit 1. Invoked from ctest (see
# tests/CMakeLists.txt) with
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

# Kernel dispatch is a fixed preference list, not a load-time timing, so
# every load of one package prints the same --kernels table. tiny_conv at
# 4/4/4/4 has layers on both sides of the packed VNNI kernel's
# eligibility (unsigned 4-bit activations after the stem).
set(CONV_PACKAGE "${WORK_DIR}/tiny_conv_4444.vsqa")
execute_process(
  COMMAND "${VSQ_QUANTIZE}" --model=tiny_conv --config=4/4/4/4 --vector=16
          "--out=${CONV_PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_quantize --model=tiny_conv --config=4/4/4/4 failed with exit code ${rc}:\n${out}")
endif()
set(first_table "")
foreach(load RANGE 1 5)
  execute_process(
    COMMAND "${VSQ_INSPECT}" "--package=${CONV_PACKAGE}" --kernels
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE table ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vsq_inspect --kernels (load ${load}) failed with exit code ${rc}:\n${err}")
  endif()
  if(load EQUAL 1)
    set(first_table "${table}")
    message(STATUS "vsq_inspect --kernels tiny_conv 4/4/4/4:\n${table}")
  elseif(NOT table STREQUAL first_table)
    message(FATAL_ERROR "vsq_inspect --kernels load ${load} printed a different table:\n${table}")
  endif()
endforeach()

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

# An unknown VSQ_ISA value is a usage error in every tool: exit 2 with one
# line on stderr before any work (no package written, nothing inspected).
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env VSQ_ISA=bogus
          "${VSQ_QUANTIZE}" --model=tiny "--out=${TYPO_PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "VSQ_ISA=bogus vsq_quantize exited with ${rc}, expected the usage error 2:\n${out}${err}")
endif()
if(NOT err MATCHES "^vsq_quantize: VSQ_ISA: unknown isa 'bogus'[^\n]*\n$")
  message(FATAL_ERROR "VSQ_ISA=bogus vsq_quantize did not print one usage line on stderr:\n${err}")
endif()
if(EXISTS "${TYPO_PACKAGE}")
  message(FATAL_ERROR "VSQ_ISA=bogus vsq_quantize wrote ${TYPO_PACKAGE}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env VSQ_ISA=bogus
          "${VSQ_INSPECT}" "--package=${PACKAGE}" --kernels
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "VSQ_ISA=bogus vsq_inspect --kernels exited with ${rc}, expected the usage error 2:\n${out}${err}")
endif()
if(NOT out STREQUAL "" OR NOT err MATCHES "^vsq_inspect: VSQ_ISA: unknown isa 'bogus'[^\n]*\n$")
  message(FATAL_ERROR "VSQ_ISA=bogus vsq_inspect --kernels printed more than one usage line:\n${out}${err}")
endif()

# An output path that cannot be written fails the export (exit 1) with
# one line on stderr and no "exported" report, not an abort.
execute_process(
  COMMAND "${VSQ_QUANTIZE}" --model=tiny "--out=${WORK_DIR}/no_such_dir/x.vsqa"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "vsq_quantize to an unwritable path exited with ${rc}, expected 1:\n${out}${err}")
endif()
if(out MATCHES "exported" OR NOT err MATCHES "^vsq_quantize: [^\n]*\n$")
  message(FATAL_ERROR "vsq_quantize to an unwritable path did not fail with one line on stderr:\n${out}${err}")
endif()

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
