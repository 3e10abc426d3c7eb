# End-to-end serving smoke test: export the tiny model's integer package
# with vsq_quantize, then drive it with vsq_soak's one-model closed loop
# (no reloads, one request per client iteration) and the result cache on.
# The tool's differential audit (on by default) makes the run fail unless
# every served output is bit-identical to sequential single-sample
# inference, and the audit's sequential reference pass counts the integer
# datapath, each distinct input once: 32 inputs x 2304 V=16 dot products
# per row of the tiny 256-128-32 MLP (fc1 128 outputs x 16 vectors + fc2
# 32 outputs x 8 vectors).
# Invoked from ctest (see tests/CMakeLists.txt) with
#   -DVSQ_QUANTIZE=<path> -DVSQ_SOAK=<path> -DWORK_DIR=<scratch dir>
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

execute_process(
  COMMAND "${VSQ_SOAK}" "--packages=tiny=${PACKAGE}" --reload-every=0 --burst-max=1
          --clients=4 --requests=64 --max-batch=8 --cache=16 --unique=32
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_soak output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_soak failed with exit code ${rc}")
endif()
if(NOT out MATCHES "64 responses verified bit-identical to sequential execution")
  message(FATAL_ERROR "vsq_soak did not report the bit-exactness audit")
endif()
if(NOT out MATCHES "\"requests\":64")
  message(FATAL_ERROR "vsq_soak JSON line missing or wrong request count")
endif()
if(NOT out MATCHES "integer datapath: 73728 vector ops")
  message(FATAL_ERROR "vsq_soak's reference pass did not count 32 x 2304 vector ops")
endif()
