# lint-golden: runs mdac-lint over a corpus and compares its stdout and
# exit code with a checked-in golden file.
#
#   cmake -DLINT=<mdac-lint binary> -DREPO_ROOT=<repository root>
#         -DCORPUS=<corpus, relative to REPO_ROOT>
#         -DGOLDEN=<golden file, relative to REPO_ROOT>
#         -DEXPECTED_EXIT=<exit code> -P cmake/lint_golden_check.cmake
#
# mdac-lint runs from REPO_ROOT with the relative corpus path, so its
# "parsed <file>" lines do not depend on where the checkout lives. After
# an intentional output change, regenerate the golden file from the
# repository root with `mdac-lint <corpus> > <golden>`.
foreach(var LINT REPO_ROOT CORPUS GOLDEN EXPECTED_EXIT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lint-golden: pass -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${LINT}" "${CORPUS}"
                WORKING_DIRECTORY "${REPO_ROOT}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
file(READ "${REPO_ROOT}/${GOLDEN}" expected)

if(NOT exit_code STREQUAL EXPECTED_EXIT)
  message(FATAL_ERROR
          "lint-golden: mdac-lint ${CORPUS} exited ${exit_code}, expected ${EXPECTED_EXIT}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "lint-golden: mdac-lint ${CORPUS} differs from ${GOLDEN}\n"
          "--- expected\n${expected}--- actual\n${actual}")
endif()
message(STATUS "lint-golden: ${CORPUS} matches ${GOLDEN} (exit ${exit_code})")
