# Fails when the AVX2 kernel object contains a fused multiply-add/sub
# (vfmaddsub*/vfmsubadd*): the compiler fused a complex multiply that the
# scalar tier rounds in two steps, so the tiers are no longer lane-exact
# (see the pragma at the top of src/stats/simd/kernels_avx2.cc).
#
#   cmake -DOBJDUMP=<objdump> -DOBJECT=<kernels_avx2 object> -P <this file>
#
# Prints "SKIP" (ctest marks the test skipped) when objdump is missing or
# the AVX2 tier is compiled out (OBJECT empty).

if(NOT OBJDUMP)
  message("SKIP: objdump not found")
  return()
endif()
if(NOT OBJECT)
  message("SKIP: the AVX2 tier is compiled out")
  return()
endif()
execute_process(COMMAND "${OBJDUMP}" -d "${OBJECT}"
                OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "objdump -d ${OBJECT} failed (${rc})")
endif()
string(REGEX MATCHALL "vfm(addsub|subadd)[0-9a-z]*" fused "${asm}")
list(LENGTH fused count)
if(count GREATER 0)
  message(FATAL_ERROR
          "${count} fused add/sub instruction(s) in ${OBJECT}: ${fused}")
endif()
message("no fused add/sub instructions in ${OBJECT}")
