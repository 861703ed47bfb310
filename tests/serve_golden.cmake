# Replays the serve request fixture through dqma_serve and compares the
# response bytes with the committed golden responses.
#
#   cmake -DSERVE=<dqma_serve> -DREQUESTS=<requests.jsonl>
#         -DGOLDEN=<responses.jsonl> -DOUT=<scratch file> -P serve_golden.cmake
execute_process(COMMAND ${SERVE} --threads 4
                INPUT_FILE ${REQUESTS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "dqma_serve exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "responses in ${OUT} differ from ${GOLDEN}")
endif()
