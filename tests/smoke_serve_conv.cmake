# End-to-end CNN serving smoke test: export the tiny residual CNN's
# integer package with vsq_quantize (conv geometry + conv/residual/pool
# forward program + input image shape), inspect it, then drive it with
# vsq_soak's one-model closed loop (no reloads, one request per client
# iteration, a distinct input per request). The tool's differential audit
# (on by default) makes the run fail unless every served output is
# bit-identical to sequential single-sample inference through the tiled
# integer conv datapath. Invoked from ctest (see tests/CMakeLists.txt) with
#   -DVSQ_QUANTIZE=<path> -DVSQ_INSPECT=<path> -DVSQ_SOAK=<path>
#   -DWORK_DIR=<scratch dir>
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{VSQ_ARTIFACTS} "${WORK_DIR}/artifacts")
set(PACKAGE "${WORK_DIR}/tiny_conv_int.vsqa")

execute_process(
  COMMAND "${VSQ_QUANTIZE}" --model=tiny_conv --config=4/8/6/10 --vector=16
          "--out=${PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_quantize output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_quantize failed with exit code ${rc}")
endif()

execute_process(
  COMMAND "${VSQ_INSPECT}" "--package=${PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_inspect output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_inspect failed with exit code ${rc}")
endif()
if(NOT out MATCHES "shortcut")
  message(FATAL_ERROR "vsq_inspect did not print the conv forward program")
endif()
if(NOT out MATCHES "3x3 s1 p1")
  message(FATAL_ERROR "vsq_inspect did not print conv layer geometry")
endif()

execute_process(
  COMMAND "${VSQ_SOAK}" "--packages=tiny_conv=${PACKAGE}" --reload-every=0 --burst-max=1
          --clients=4 --requests=48 --max-batch=8 --unique=48
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_soak output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_soak failed with exit code ${rc}")
endif()
if(NOT out MATCHES "48 responses verified bit-identical to sequential execution")
  message(FATAL_ERROR "vsq_soak did not report the bit-exactness audit")
endif()
if(NOT out MATCHES "\"requests\":48")
  message(FATAL_ERROR "vsq_soak JSON line missing or wrong request count")
endif()
